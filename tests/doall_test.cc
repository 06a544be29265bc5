/**
 * @file
 * The paper's §9 ERSA comparison claim, demonstrated: "CommGuard has
 * fewer demands on the programming model ... and can also handle
 * do-all parallelism which can be easily written in StreamIt."
 *
 * A do-all program — N independent workers processing disjoint chunks
 * behind a round-robin split and join — runs under CommGuard with no
 * special casing: the split/join edges carry frame headers like any
 * pipeline edge, so a worker whose control flow wanders only corrupts
 * its own chunk of the current frame.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "isa/assembler.hh"
#include "kernels/basic.hh"
#include "kernels/dsp_kernels.hh"
#include "sim/experiment.hh"
#include "streamit/loader.hh"

namespace commguard
{
namespace
{

using namespace isa;
using namespace streamit;
using protection::ProtectionMode;
using protection::protectionModeName;

constexpr int numWorkers = 4;
constexpr int chunkItems = 8;

/**
 * Worker body: per firing, pops a chunk of 8 float items and pushes
 * each mapped through y = 0.5x + 1 — an embarrassingly parallel,
 * idempotent per-chunk computation (the ERSA-style workload shape).
 */
Program
workerProgram(int firings)
{
    Assembler a("worker");
    a.forDown(R30, static_cast<Word>(firings), [&] {
        a.scopeEnter(chunkItems * 8 + 8);
        a.lif(R10, 0.5f);
        a.lif(R11, 1.0f);
        a.forDown(R29, chunkItems, [&] {
            a.pop(R2, 0);
            a.fmul(R3, R2, R10);
            a.fadd(R3, R3, R11);
            a.push(0, R3);
        });
        a.scopeExit();
    });
    a.setEstimatedInsts(static_cast<Count>(firings) *
                        (chunkItems * 8 + 12));
    return a.finalize();
}

/** Chunk-granular round-robin splitter: numWorkers chunks per firing. */
Program
chunkSplitProgram(int firings)
{
    Assembler a("doall_split");
    a.forDown(R30, static_cast<Word>(firings), [&] {
        for (int w = 0; w < numWorkers; ++w) {
            a.forDown(R29, chunkItems, [&] {
                a.pop(R2, 0);
                a.push(w, R2);
            });
        }
    });
    a.setEstimatedInsts(static_cast<Count>(firings) *
                        (numWorkers * chunkItems * 5 + 8));
    return a.finalize();
}

/** Chunk-granular round-robin joiner. */
Program
chunkJoinProgram(int firings)
{
    Assembler a("doall_join");
    a.forDown(R30, static_cast<Word>(firings), [&] {
        for (int w = 0; w < numWorkers; ++w) {
            a.forDown(R29, chunkItems, [&] {
                a.pop(R2, w);
                a.push(0, R2);
            });
        }
    });
    a.setEstimatedInsts(static_cast<Count>(firings) *
                        (numWorkers * chunkItems * 5 + 8));
    return a.finalize();
}

StreamGraph
makeDoAllGraph()
{
    StreamGraph g;
    const NodeId split = g.addFilter(
        {"split",
         {numWorkers * chunkItems},
         std::vector<int>(numWorkers, chunkItems),
         chunkSplitProgram});
    NodeId workers[numWorkers];
    for (int w = 0; w < numWorkers; ++w) {
        std::string name = "W";
        name += std::to_string(w);
        workers[w] = g.addFilter(
            {std::move(name), {chunkItems}, {chunkItems}, workerProgram});
        g.connect(split, w, workers[w], 0);
    }
    const NodeId join = g.addFilter(
        {"join", std::vector<int>(numWorkers, chunkItems),
         {numWorkers * chunkItems}, chunkJoinProgram});
    for (int w = 0; w < numWorkers; ++w)
        g.connect(workers[w], 0, join, w);
    g.setExternalInput(split, 0);
    g.setExternalOutput(join, 0);
    return g;
}

TEST(DoAll, StructureBalances)
{
    const StreamGraph g = makeDoAllGraph();
    ASSERT_EQ(g.validateStructure(), "");
    const RepetitionVector reps = solveRepetitions(g);
    ASSERT_TRUE(reps.ok) << reps.error;
    EXPECT_EQ(reps.firings,
              (std::vector<Count>(numWorkers + 2, 1)));
}

TEST(DoAll, ErrorFreeComputesEveryChunk)
{
    const StreamGraph g = makeDoAllGraph();
    const Count iterations = 32;
    const Count items =
        iterations * numWorkers * chunkItems;

    std::vector<Word> input;
    for (Count i = 0; i < items; ++i)
        input.push_back(floatToWord(static_cast<float>(i % 100)));

    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    LoadedApp app = loadGraph(g, input, iterations, options);
    ASSERT_TRUE(app.run().completed);

    const std::vector<Word> &out = app.output();
    ASSERT_EQ(out.size(), items);
    for (Count i = 0; i < items; ++i) {
        const float x = static_cast<float>(i % 100);
        EXPECT_FLOAT_EQ(wordToFloat(out[i]), x * 0.5f + 1.0f)
            << "item " << i;
    }
}

TEST(DoAll, WorkerErrorsStayInTheirChunks)
{
    // A single misbehaving worker must not shift the other workers'
    // outputs: the join realigns each input edge independently. Run
    // under heavy errors and check that complete frames still carry
    // items from the right positions (value pattern check on the
    // error-free majority).
    const StreamGraph g = makeDoAllGraph();
    const Count iterations = 128;
    const Count items = iterations * numWorkers * chunkItems;
    std::vector<Word> input;
    for (Count i = 0; i < items; ++i)
        input.push_back(floatToWord(static_cast<float>(i % 100)));

    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = true;
    options.mtbe = 20'000;
    options.seed = 8;
    LoadedApp app = loadGraph(g, input, iterations, options);
    ASSERT_TRUE(app.run().completed);

    const std::vector<Word> &out = app.output();
    // Sink control-flow errors can over/under-push to the output
    // device, so the collected length may drift a little.
    EXPECT_NEAR(static_cast<double>(out.size()),
                static_cast<double>(items), items * 0.25);
    Count exact = 0;
    const Count compare = std::min<Count>(items, out.size());
    for (Count i = 0; i < compare; ++i) {
        const float expected =
            static_cast<float>(i % 100) * 0.5f + 1.0f;
        if (out[i] == floatToWord(expected))
            ++exact;
    }
    // Despite an error every 20k instructions, the majority of items
    // land in exactly the right slot with the right value; corruption
    // is confined, not cumulative.
    EXPECT_GT(exact, items / 2)
        << "only " << exact << " of " << items << " exact";
}

TEST(DoAll, CompletesUnderExtremeErrorsInAllModes)
{
    const StreamGraph g = makeDoAllGraph();
    const Count iterations = 64;
    std::vector<Word> input(
        iterations * numWorkers * chunkItems, floatToWord(1.0f));

    for (ProtectionMode mode :
         {ProtectionMode::Raw, ProtectionMode::ReliableQueue,
          ProtectionMode::CommGuard}) {
        LoadOptions options;
        options.mode = mode;
        options.injectErrors = true;
        options.mtbe = 3'000;
        options.seed = 21;
        LoadedApp app = loadGraph(g, input, iterations, options);
        EXPECT_TRUE(app.run().completed)
            << protectionModeName(mode);
    }
}

} // namespace
} // namespace commguard
