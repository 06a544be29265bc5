/**
 * @file
 * Tests for service mode (docs/SERVICE.md):
 *  - the determinism contract: the same config produces bitwise
 *    identical JSONL and summary bytes on every invocation,
 *  - observation cadence never perturbs the computation (snapshot
 *    frequency changes the stream, not the output checksum),
 *  - admission control bounds the source backlog,
 *  - mid-run events (MTBE degradation, live remap) fire and are
 *    recorded,
 *  - the incremental Multicore stepping API (stepRound()/finish())
 *    reproduces run() exactly,
 *  - per-core MTBE heterogeneity lands errors on the configured core,
 *  - config validation fatals on batch-only options.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "apps/app.hh"
#include "sim/service_driver.hh"
#include "sim/sweep_runner.hh"
#include "streamit/loader.hh"

namespace commguard::sim
{
namespace
{

/** A small service config over the fft app: enough frames for several
 *  bursts and snapshots, cheap enough for a unit test. */
ServiceConfig
smallConfig(const apps::App &app)
{
    ServiceConfig config;
    config.app = &app;
    config.load =
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     64'000.0, 0);
    config.totalFrames = 300;
    config.arrivalSeed = 7;
    config.meanBurstFrames = 16;
    config.meanGapSlices = 4;
    config.maxBacklogFrames = 64;
    config.snapshotEveryFrames = 100;
    config.telemetrySlices = 64;
    return config;
}

TEST(ServiceDriver, SameConfigProducesBitwiseIdenticalStreams)
{
    const apps::App app = apps::makeFftApp(16);
    ServiceConfig config = smallConfig(app);
    config.events.push_back(
        {ServiceEvent::Kind::MtbeDegrade, 100, 1, 8.0, 0});
    config.events.push_back({ServiceEvent::Kind::Remap, 200, 0, 0, 1});

    const ServiceOutcome first = ServiceDriver(config).run();
    const ServiceOutcome second = ServiceDriver(config).run();

    EXPECT_TRUE(first.completed);
    EXPECT_EQ(first.framesCompleted, config.totalFrames);
    EXPECT_EQ(first.jsonl, second.jsonl);
    EXPECT_EQ(first.summary.dump(), second.summary.dump());
    EXPECT_EQ(first.outputChecksum, second.outputChecksum);
    EXPECT_EQ(first.machineRounds, second.machineRounds);

    // The stream is well-formed: meta first, summary last, and the
    // events both appear.
    EXPECT_EQ(first.jsonl.compare(0, 15, "{\"app\":\"fft\",\"a"), 0)
        << first.jsonl.substr(0, 60);
    EXPECT_NE(first.jsonl.find("\"type\":\"meta\""), std::string::npos);
    EXPECT_NE(first.jsonl.find("\"kind\":\"mtbe_degrade\""),
              std::string::npos);
    EXPECT_NE(first.jsonl.find("\"kind\":\"remap\""), std::string::npos);
    EXPECT_EQ(first.eventsApplied, 2u);
    EXPECT_GE(first.snapshots, 2u);
}

TEST(ServiceDriver, SnapshotCadenceDoesNotPerturbTheComputation)
{
    const apps::App app = apps::makeFftApp(16);
    ServiceConfig config = smallConfig(app);
    const ServiceOutcome sparse = ServiceDriver(config).run();

    config.snapshotEveryFrames = 25;  // 4x more snapshots.
    const ServiceOutcome dense = ServiceDriver(config).run();

    EXPECT_GT(dense.snapshots, sparse.snapshots);
    // Observation is read-only: the machine executed identically.
    EXPECT_EQ(dense.outputChecksum, sparse.outputChecksum);
    EXPECT_EQ(dense.outputItems, sparse.outputItems);
    EXPECT_EQ(dense.machineRounds, sparse.machineRounds);
    EXPECT_EQ(dense.totalInstructions, sparse.totalInstructions);
    EXPECT_EQ(dense.errorsInjected, sparse.errorsInjected);
}

TEST(ServiceDriver, AdmissionControlBoundsTheBacklog)
{
    const apps::App app = apps::makeFftApp(16);
    ServiceConfig config = smallConfig(app);
    config.load.injectErrors = false;
    config.maxBacklogFrames = 8;
    config.meanBurstFrames = 64;  // Bursts far larger than the bound.

    const ServiceOutcome outcome = ServiceDriver(config).run();
    EXPECT_TRUE(outcome.completed);

    // Worst-case words per admitted frame: items + header/checksum
    // overhead (2) plus the one end-of-computation header.
    streamit::LoadedApp probe = streamit::loadGraph(
        app.graph, app.input, 1, config.load);
    const Count per_frame = probe.frames.inputItemsPerFrame + 2;
    EXPECT_LE(outcome.maxBacklogWords,
              config.maxBacklogFrames * per_frame + 1);
}

TEST(ServiceDriver, CompletesWithoutErrorsAndCountsOutput)
{
    const apps::App app = apps::makeFftApp(16);
    ServiceConfig config = smallConfig(app);
    config.load.injectErrors = false;

    const ServiceOutcome outcome = ServiceDriver(config).run();
    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.framesAdmitted, config.totalFrames);
    EXPECT_EQ(outcome.framesCompleted, config.totalFrames);
    EXPECT_EQ(outcome.errorsInjected, 0u);
    EXPECT_EQ(outcome.timeoutsFired, 0u);
    EXPECT_EQ(outcome.sourceUnderflows, 0u);
    EXPECT_GT(outcome.outputItems, 0u);
    EXPECT_GT(outcome.bursts, 1u);
    // Clean runs never fabricate input: every output item came from an
    // admitted frame.
    streamit::LoadedApp probe = streamit::loadGraph(
        app.graph, app.input, 1, config.load);
    EXPECT_EQ(outcome.outputItems,
              config.totalFrames * probe.frames.outputItemsPerFrame);
}

TEST(ServiceDriver, StepRoundLoopReproducesRunExactly)
{
    // The incremental stepping API the service driver is built on must
    // be behaviorally identical to the monolithic run() (same rounds,
    // same totals, same output bytes) — pause/resume is free.
    const apps::App app = apps::makeFftApp(16);
    const streamit::LoadOptions options =
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     48'000.0, 3);

    streamit::LoadedApp batch = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, options);
    const MachineRunResult via_run = batch.machine->run();

    streamit::LoadedApp stepped = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, options);
    while (stepped.machine->stepRound() ==
           Multicore::RoundStatus::Running) {
    }
    const MachineRunResult via_steps = stepped.machine->finish();

    EXPECT_EQ(via_run.completed, via_steps.completed);
    EXPECT_EQ(via_run.totalInstructions, via_steps.totalInstructions);
    EXPECT_EQ(via_run.totalCycles, via_steps.totalCycles);
    EXPECT_EQ(via_run.timeoutsFired, via_steps.timeoutsFired);
    EXPECT_EQ(via_run.deadlockBreaks, via_steps.deadlockBreaks);
    EXPECT_EQ(batch.output(), stepped.output());
    EXPECT_EQ(batch.machine->schedulerRound(),
              stepped.machine->schedulerRound());
}

TEST(ServiceDriver, PerCoreMtbeConcentratesErrorsOnTheBadCore)
{
    const apps::App app = apps::makeFftApp(16);
    streamit::LoadOptions options =
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     1e15, 0);
    // One pathological core, the rest effectively error-free.
    const std::size_t nodes =
        static_cast<std::size_t>(app.graph.numNodes());
    options.perCoreMtbe.assign(nodes, 1e15);
    options.perCoreMtbe[2] = 2'000.0;

    streamit::LoadedApp loaded = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, options);
    loaded.machine->run();
    const metrics::MetricSnapshot snapshot = loaded.machine->metrics().snapshot();

    const std::string bad_node =
        loaded.machine->cores()[2]->name();
    const Count bad_errors =
        snapshot.get("node/" + bad_node + "/errorsInjected");
    const Count all_errors = snapshot.total("errorsInjected");
    EXPECT_GT(bad_errors, 0u);
    EXPECT_EQ(all_errors, bad_errors)
        << "errors leaked onto cores with astronomically large MTBE";
}

TEST(ServiceDriver, RejectsBatchOnlyOptions)
{
    const apps::App app = apps::makeFftApp(16);
    {
        ServiceConfig config = smallConfig(app);
        config.load.frameScale = 2;
        EXPECT_EXIT(ServiceDriver bad(std::move(config)),
                    ::testing::ExitedWithCode(1),
                    "uniform frame domain");
    }
    {
        ServiceConfig config = smallConfig(app);
        config.load.frameAlignedOutput = true;
        EXPECT_EXIT(ServiceDriver bad(std::move(config)),
                    ::testing::ExitedWithCode(1), "frameAlignedOutput");
    }
    {
        ServiceConfig config = smallConfig(app);
        config.maxBacklogFrames = 0;
        EXPECT_EXIT(ServiceDriver bad(std::move(config)),
                    ::testing::ExitedWithCode(1), "maxBacklogFrames");
    }
}

} // namespace
} // namespace commguard::sim
