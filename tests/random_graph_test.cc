/**
 * @file
 * Randomized stress test over the whole stack: generate random (but
 * rate-consistent) stream graphs — chains with occasional split-joins
 * and rate conversions — and check that
 *  (i) the repetition solver balances every edge,
 *  (ii) error-free execution forwards exactly the expected item count
 *       under every protection mode, and
 *  (iii) erroneous execution always completes (the paper's progress
 *        requirement) at an extreme error rate.
 *
 * The generator itself lives in apps::randomStreamGraph so the fuzz
 * harness (src/sim/fuzz.hh, tools/cg_fuzz) draws exactly the graph
 * shapes this test has hardened.
 */

#include <gtest/gtest.h>

#include "apps/random_graph_app.hh"
#include "common/rng.hh"
#include "sim/experiment.hh"
#include "streamit/loader.hh"

namespace commguard
{
namespace
{

using namespace streamit;
using protection::ProtectionMode;
using protection::protectionModeName;

class RandomGraph : public ::testing::TestWithParam<int>
{
};

TEST_P(RandomGraph, SolvesLoadsAndRuns)
{
    Rng rng(GetParam() * 2654435761u + 17);
    apps::RandomGraphOptions graph_options;
    graph_options.stages = 2 + static_cast<int>(rng.below(4));
    const StreamGraph g = apps::randomStreamGraph(rng, graph_options);

    ASSERT_EQ(g.validateStructure(), "");
    const RepetitionVector reps = solveRepetitions(g);
    ASSERT_TRUE(reps.ok) << reps.error;

    // Balance check: every edge transfers the same item count from
    // both endpoints' perspective.
    for (const Edge &edge : g.edges()) {
        const Count produced =
            reps.firings[edge.producer] *
            g.filters()[edge.producer].pushRates[edge.outPort];
        const Count consumed =
            reps.firings[edge.consumer] *
            g.filters()[edge.consumer].popRates[edge.inPort];
        EXPECT_EQ(produced, consumed);
    }

    const FrameAnalysis frames = analyzeFrames(g, reps);
    // Duplicate splits make output items a multiple of input items;
    // either way both are positive and related by integers.
    ASSERT_GT(frames.inputItemsPerFrame, 0u);
    ASSERT_GT(frames.outputItemsPerFrame, 0u);

    const Count iterations = 12;
    std::vector<Word> input(frames.inputItemsPerFrame * iterations);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = floatToWord(static_cast<float>(i % 17) * 0.25f);

    // (ii) Error-free exactness in every mode.
    for (ProtectionMode mode :
         {ProtectionMode::Raw, ProtectionMode::ReliableQueue,
          ProtectionMode::CommGuard}) {
        LoadOptions options;
        options.mode = mode;
        options.injectErrors = false;
        LoadedApp app = loadGraph(g, input, iterations, options);
        const MachineRunResult result = app.run();
        ASSERT_TRUE(result.completed) << protectionModeName(mode);
        EXPECT_EQ(app.output().size(),
                  frames.outputItemsPerFrame * iterations)
            << protectionModeName(mode);
        EXPECT_EQ(result.timeoutsFired, 0u)
            << protectionModeName(mode);
    }

    // (iii) Progress under extreme errors in every mode.
    for (ProtectionMode mode :
         {ProtectionMode::Raw, ProtectionMode::ReliableQueue,
          ProtectionMode::CommGuard}) {
        LoadOptions options;
        options.mode = mode;
        options.injectErrors = true;
        options.mtbe = 2'000;  // Brutal: an error every 2k insts.
        options.seed = GetParam() * 31 + 7;
        LoadedApp app = loadGraph(g, input, iterations, options);
        const MachineRunResult result = app.run();
        EXPECT_TRUE(result.completed) << protectionModeName(mode);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomGraph, ::testing::Range(0, 16));

/** makeRandomGraphApp is a pure function of its seed and options. */
TEST(RandomGraphApp, SameSeedSameApp)
{
    apps::RandomGraphOptions options;
    options.stages = 5;
    Count expected_a = 0;
    Count expected_b = 0;
    const apps::App a =
        apps::makeRandomGraphApp(1234, options, 6, &expected_a);
    const apps::App b =
        apps::makeRandomGraphApp(1234, options, 6, &expected_b);

    EXPECT_EQ(a.name, "fuzz_1234");
    EXPECT_EQ(expected_a, expected_b);
    EXPECT_GT(expected_a, 0u);
    EXPECT_EQ(a.input, b.input);
    EXPECT_EQ(a.graph.filters().size(), b.graph.filters().size());

    // Error-free execution forwards exactly the announced item count.
    LoadOptions load;
    load.injectErrors = false;
    LoadedApp loaded = loadGraph(a.graph, a.input, 6, load);
    ASSERT_TRUE(loaded.run().completed);
    EXPECT_EQ(loaded.output().size(), expected_a);
}

} // namespace
} // namespace commguard
