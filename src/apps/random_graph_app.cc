#include "apps/random_graph_app.hh"

#include "common/logging.hh"
#include "kernels/basic.hh"
#include "kernels/dsp_kernels.hh"
#include "streamit/schedule.hh"

namespace commguard::apps
{

namespace
{

using namespace streamit;

FilterSpec
passFilter(const std::string &name, int items)
{
    return FilterSpec{name,
                      {items},
                      {items},
                      [name, items](int firings) {
                          return kernels::buildPassthrough(
                              name, items, firings);
                      }};
}

} // namespace

StreamGraph
randomStreamGraph(Rng &rng, const RandomGraphOptions &options)
{
    StreamGraph g;

    const int stages = options.stages < 1 ? 1 : options.stages;
    const int max_granularity =
        options.maxGranularity < 1 ? 1 : options.maxGranularity;
    NodeId prev = -1;
    int node_counter = 0;

    auto fresh_name = [&node_counter](const char *stem) {
        return std::string(stem) + std::to_string(node_counter++);
    };

    for (int s = 0; s < stages; ++s) {
        const int kind = static_cast<int>(rng.below(3));
        if (kind == 2 && s > 0 && options.allowSplitJoin) {
            // Split-join sandwich: duplicate to 2 branches, sum.
            const NodeId split = g.addFilter(
                {fresh_name("split"), {1}, {1, 1}, [](int firings) {
                     return kernels::buildSplitDuplicate(2, firings);
                 }});
            const NodeId bra =
                g.addFilter(passFilter(fresh_name("bra"), 1));
            const NodeId brb =
                g.addFilter(passFilter(fresh_name("brb"), 1));
            const NodeId join = g.addFilter(
                {fresh_name("join"), {1, 1}, {1}, [](int firings) {
                     return kernels::buildJoinSum(2, firings);
                 }});
            g.connect(split, 0, bra, 0);
            g.connect(split, 1, brb, 0);
            g.connect(bra, 0, join, 0);
            g.connect(brb, 0, join, 1);
            if (prev >= 0)
                g.connect(prev, 0, split, 0);
            else
                g.setExternalInput(split, 0);
            prev = join;
        } else {
            // Pass-through with a random granularity.
            const int items =
                1 + static_cast<int>(rng.below(
                        static_cast<std::uint32_t>(max_granularity)));
            const NodeId node =
                g.addFilter(passFilter(fresh_name("p"), items));
            if (prev >= 0)
                g.connect(prev, 0, node, 0);
            else
                g.setExternalInput(node, 0);
            prev = node;
        }
    }
    g.setExternalOutput(prev, 0);
    return g;
}

App
makeRandomGraphApp(std::uint64_t graph_seed,
                   const RandomGraphOptions &options, Count iterations,
                   Count *expected_output_items)
{
    Rng rng(graph_seed);

    App app;
    app.name = "fuzz_" + std::to_string(graph_seed);
    app.graph = randomStreamGraph(rng, options);
    app.steadyIterations = iterations;

    const std::string structure = app.graph.validateStructure();
    if (!structure.empty()) {
        panic("random_graph_app: generated graph is invalid: " +
              structure);
    }
    const streamit::RepetitionVector reps =
        streamit::solveRepetitions(app.graph);
    if (!reps.ok) {
        panic("random_graph_app: generated graph is unbalanced: " +
              reps.error);
    }
    const streamit::FrameAnalysis frames =
        streamit::analyzeFrames(app.graph, reps);
    if (expected_output_items != nullptr)
        *expected_output_items = frames.outputItemsPerFrame * iterations;

    app.input.resize(frames.inputItemsPerFrame * iterations);
    for (std::size_t i = 0; i < app.input.size(); ++i)
        app.input[i] = floatToWord(static_cast<float>(i % 17) * 0.25f);

    // Fuzz invariants compare raw output words and metric counters;
    // a dB figure is meaningless for a synthetic graph.
    app.quality = [](const std::vector<Word> &) { return 0.0; };
    app.errorFreeQualityDb = 0.0;
    return app;
}

} // namespace commguard::apps
