/**
 * @file
 * Tests for the graph loader: queue substrate selection per protection
 * mode, source-stream framing, and end-to-end execution of a small
 * pipeline under every configuration.
 */

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "kernels/basic.hh"
#include "queue/reliable_queue.hh"
#include "queue/software_queue.hh"
#include "queue/working_set_queue.hh"
#include "sim/experiment.hh"
#include "sim/experiment_config.hh"
#include "streamit/loader.hh"
#include "test_util.hh"

namespace commguard::streamit
{
namespace
{

using protection::ProtectionMode;
using protection::protectionModeName;

/** Two-stage pass-through pipeline, 4 items per firing. */
StreamGraph
makePipeline()
{
    StreamGraph g;
    const NodeId a = g.addFilter(
        {"A", {4}, {4}, [](int firings) {
             return kernels::buildPassthrough("A", 4, firings);
         }});
    const NodeId b = g.addFilter(
        {"B", {4}, {4}, [](int firings) {
             return kernels::buildPassthrough("B", 4, firings);
         }});
    g.connect(a, 0, b, 0);
    g.setExternalInput(a, 0);
    g.setExternalOutput(b, 0);
    return g;
}

std::vector<Word>
iota(std::size_t n)
{
    std::vector<Word> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<Word>(i);
    return v;
}

TEST(Loader, ErrorFreeRunForwardsEverything)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;

    LoadedApp app = loadGraph(g, iota(40), 10, options);
    const MachineRunResult result = app.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(app.output(), iota(40));
}

TEST(Loader, AllModesCompleteErrorFree)
{
    for (ProtectionMode mode :
         {ProtectionMode::Raw, ProtectionMode::ReliableQueue,
          ProtectionMode::CommGuard}) {
        const StreamGraph g = makePipeline();
        LoadOptions options;
        options.mode = mode;
        options.injectErrors = false;
        LoadedApp app = loadGraph(g, iota(40), 10, options);
        const MachineRunResult result = app.run();
        EXPECT_TRUE(result.completed)
            << protectionModeName(mode);
        EXPECT_EQ(app.output(), iota(40))
            << protectionModeName(mode);
    }
}

template <typename QueueType>
void
expectEdgeQueueType(ProtectionMode mode)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = mode;
    options.injectErrors = false;
    LoadedApp app = loadGraph(g, iota(8), 2, options);
    // Queues: [0] source, [1] collector, [2] the A->B edge.
    EXPECT_NE(
        dynamic_cast<QueueType *>(app.machine->queues()[2].get()),
        nullptr)
        << protectionModeName(mode);
}

TEST(Loader, QueueTypeFollowsMode)
{
    expectEdgeQueueType<SoftwareQueue>(ProtectionMode::Raw);
    expectEdgeQueueType<ReliableQueue>(ProtectionMode::ReliableQueue);
    expectEdgeQueueType<WorkingSetQueue>(ProtectionMode::CommGuard);
}

TEST(Loader, GuardedSourceCarriesFrameHeaders)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    LoadedApp app = loadGraph(g, iota(12), 3, options);

    // 3 frames x (1 header + 4 items) + end-of-computation marker.
    SourceQueue *source = app.source;
    ASSERT_NE(source, nullptr);
    EXPECT_EQ(source->capacity(), 3u * 5u + 1u);

    QueueWord w;
    for (FrameId frame = 1; frame <= 3; ++frame) {
        ASSERT_EQ(source->tryPop(w), QueueOpStatus::Ok);
        EXPECT_TRUE(w.isHeader);
        EXPECT_EQ(w.value, frame);
        for (int i = 0; i < 4; ++i) {
            ASSERT_EQ(source->tryPop(w), QueueOpStatus::Ok);
            EXPECT_FALSE(w.isHeader);
        }
    }
    ASSERT_EQ(source->tryPop(w), QueueOpStatus::Ok);
    EXPECT_TRUE(w.isHeader);
    EXPECT_EQ(w.value, endOfComputationId);
}

TEST(Loader, UnguardedSourceHasNoHeaders)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = ProtectionMode::ReliableQueue;
    options.injectErrors = false;
    LoadedApp app = loadGraph(g, iota(12), 3, options);
    EXPECT_EQ(app.source->capacity(), 12u);
}

TEST(Loader, SourceGuardCanBeDisabledUnderCommGuard)
{
    // Ablation knob: CommGuard everywhere, but the input device emits
    // a raw stream (no headers), and the first filter's input edge
    // bypasses its alignment manager.
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.guardSourceEdge = false;
    LoadedApp app = loadGraph(g, iota(12), 3, options);
    EXPECT_EQ(app.source->capacity(), 12u);  // No headers, no EOC.

    const MachineRunResult result = app.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(app.output(), iota(12));
    // Internal edges still carry headers.
    const std::vector<CommGuardBackend *> cg =
        test::commGuardBackends(*app.machine);
    ASSERT_EQ(cg.size(), 2u);
    EXPECT_EQ(cg[0]->counters().headerStores, 4u);
}

TEST(Loader, FrameScaleReducesHeaderDensity)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.frameScale = 2;
    LoadedApp app = loadGraph(g, iota(16), 4, options);
    // 4 invocations, scale 2 -> 2 frames -> 2 headers + EOC.
    EXPECT_EQ(app.source->capacity(), 16u + 2u + 1u);

    const MachineRunResult result = app.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(app.output(), iota(16));

    // The producer-side backends also inserted one header per frame,
    // not per invocation.
    const std::vector<CommGuardBackend *> cg =
        test::commGuardBackends(*app.machine);
    ASSERT_FALSE(cg.empty());
    EXPECT_EQ(cg[0]->counters().prepareHeaderOps, 3u);
    // 2 frame headers + the end-of-computation header.
}

TEST(Loader, ShortInputIsZeroPadded)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.mode = ProtectionMode::ReliableQueue;
    options.injectErrors = false;
    LoadedApp app = loadGraph(g, iota(5), 3, options);  // Needs 12.
    const MachineRunResult result = app.run();
    EXPECT_TRUE(result.completed);
    std::vector<Word> expected = iota(5);
    expected.resize(12, 0);
    EXPECT_EQ(app.output(), expected);
}

TEST(Loader, FrameAnalysisIsExposed)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.injectErrors = false;
    LoadedApp app = loadGraph(g, iota(8), 2, options);
    EXPECT_EQ(app.frames.inputItemsPerFrame, 4u);
    EXPECT_EQ(app.frames.outputItemsPerFrame, 4u);
    EXPECT_EQ(app.frames.firingsPerFrame,
              (std::vector<Count>{1, 1}));
}

TEST(Loader, SoftwareQueueAppsRunCleanWithoutWatchdogTrips)
{
    // Regression: the loader must fold each filter's per-firing queue
    // operation cost into its kernel nested-scope budgets. Without
    // that, the pop/push-heavy fft/jpeg/mp3 filters blow their scope
    // watchdog budget on every firing under the software queue ("raw")
    // substrate and the run degenerates into timeout thrash.
    struct Case
    {
        const char *name;
        apps::App app;
    };
    const Case cases[] = {
        {"fft", apps::makeFftApp(16)},
        {"jpeg", apps::makeJpegApp(64, 32, 50)},
        {"mp3", apps::makeMp3App(2048)},
    };
    for (const Case &c : cases) {
        const sim::RunOutcome outcome =
            sim::ExperimentConfig::app(c.app)
                .mode("raw")
                .noErrors()
                .run();
        EXPECT_TRUE(outcome.completed) << c.name;
        bool any_nonzero = false;
        for (Word w : outcome.output)
            any_nonzero = any_nonzero || w != 0;
        EXPECT_TRUE(any_nonzero) << c.name;
        EXPECT_EQ(outcome.watchdogTrips(), 0u) << c.name;
        EXPECT_EQ(outcome.snapshot.total("nestedScopeTrips"), 0u)
            << c.name;
        EXPECT_EQ(outcome.timeoutsFired(), 0u) << c.name;
    }
}

TEST(Loader, CgBackendsOnlyInCommGuardMode)
{
    const StreamGraph g = makePipeline();
    LoadOptions options;
    options.injectErrors = false;

    options.mode = ProtectionMode::CommGuard;
    LoadedApp guarded = loadGraph(g, iota(8), 2, options);
    EXPECT_EQ(test::commGuardBackends(*guarded.machine).size(), 2u);

    options.mode = ProtectionMode::ReliableQueue;
    LoadedApp reliable = loadGraph(g, iota(8), 2, options);
    EXPECT_TRUE(test::commGuardBackends(*reliable.machine).empty());
}

} // namespace
} // namespace commguard::streamit
