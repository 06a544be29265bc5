/**
 * @file
 * Tests for service mode (docs/SERVICE.md):
 *  - the determinism contract: the same config produces bitwise
 *    identical JSONL and summary bytes on every invocation,
 *  - the stream reconciles: the snapshots' typed errors_injected/
 *    repairs counts and their registry deltas sum to the summary,
 *  - observation cadence never perturbs the computation (snapshot
 *    frequency changes the stream, not the output checksum),
 *  - admission control bounds the source backlog,
 *  - mid-run events (MTBE degradation, live remap) fire and are
 *    recorded,
 *  - the incremental Multicore stepping API (stepRound()/finish())
 *    reproduces run() exactly,
 *  - per-core MTBE heterogeneity lands errors on the configured core,
 *  - config validation fatals on batch-only options,
 *  - batch ↔ service equivalence: admitting every frame in one burst
 *    reproduces the batch run in every protection mode, and the
 *    summary counts every error and repair the batch snapshot holds.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "sim/protection.hh"
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
    return config;
}

/**
 * A config that admits all of @p app's frames in one burst and fires
 * no events: the service then executes the machine a batch run with
 * @p load executes.
 */
ServiceConfig
oneBurstConfig(const apps::App &app, const streamit::LoadOptions &load)
{
    ServiceConfig config;
    config.app = &app;
    config.load = load;
    config.totalFrames = app.steadyIterations;
    config.meanBurstFrames = Count{1} << 40;
    config.maxBacklogFrames = app.steadyIterations;
    return config;
}

/** The service summary's output checksum (FNV-1a) over @p items. */
std::uint64_t
outputChecksum(const std::vector<Word> &items)
{
    std::uint64_t checksum = 1469598103934665603ull;
    for (Word item : items)
        checksum = (checksum ^ item) * 1099511628211ull;
    return checksum;
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

    // The stream reconciles on its own: the snapshots' typed interval
    // counts, and their deltas read by leaf, both sum to the summary's
    // totals.
    const auto count_of = [](const Json &record, const char *key) {
        const Json *value = record.find(key);
        EXPECT_TRUE(value != nullptr && value->isNumber())
            << key << " in " << record.dump();
        return value != nullptr && value->isNumber() ? value->counter()
                                                     : Count{0};
    };
    Count snapshot_errors = 0;
    Count snapshot_repairs = 0;
    Count delta_errors = 0;
    Count delta_repairs = 0;
    std::istringstream lines(first.jsonl);
    std::string line;
    while (std::getline(lines, line)) {
        Json record;
        ASSERT_TRUE(Json::parse(line, record)) << line;
        if (record.find("type")->str() != "snapshot")
            continue;
        snapshot_errors += count_of(record, "errors_injected");
        snapshot_repairs += count_of(record, "repairs");
        const Json *deltas = record.find("deltas");
        ASSERT_TRUE(deltas != nullptr && deltas->isObject()) << line;
        for (const auto &[name, delta] : deltas->obj()) {
            if (metrics::leafName(name) == "errorsInjected")
                delta_errors += delta.counter();
            else if (protection::isRepairCounter(name))
                delta_repairs += delta.counter();
        }
    }
    const Count summary_errors = count_of(first.summary, "errors_injected");
    const Count summary_repairs = count_of(first.summary, "repairs");
    EXPECT_GT(summary_errors, 0u);
    EXPECT_GT(summary_repairs, 0u);
    EXPECT_EQ(summary_errors, first.errorsInjected);
    EXPECT_EQ(summary_repairs, first.repairs);
    EXPECT_EQ(snapshot_errors, summary_errors);
    EXPECT_EQ(snapshot_repairs, summary_repairs);
    EXPECT_EQ(delta_errors, summary_errors);
    EXPECT_EQ(delta_repairs, summary_repairs);
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

TEST(ServiceDriver, OneBurstMatchesBatchRunForEveryMode)
{
    // Both drivers frame the source through the loader's SourceFramer,
    // so one burst of every frame is the batch run's input stream.
    const std::vector<apps::App> apps = {apps::makeFftApp(16),
                                         apps::makeComplexFirApp(512)};
    for (const apps::App &app : apps) {
        for (const protection::ProtectionMode mode :
             protection::ProtectionRegistry::instance().modes()) {
            for (const bool inject : {false, true}) {
                const streamit::LoadOptions load =
                    sweepOptions(mode, inject, 64'000.0, 0);
                const ServiceOutcome service =
                    ServiceDriver(oneBurstConfig(app, load)).run();
                const RunOutcome batch = runOnce(app, load);

                const std::string label =
                    app.name + "/" + protection::protectionModeName(mode) +
                    (inject ? "/injected" : "/error-free");
                EXPECT_EQ(service.bursts, 1u) << label;
                EXPECT_EQ(service.outputItems, batch.output.size())
                    << label;
                EXPECT_EQ(service.outputChecksum,
                          outputChecksum(batch.output))
                    << label;
                EXPECT_EQ(service.totalInstructions,
                          batch.totalInstructions())
                    << label;
            }
        }
    }
}

TEST(ServiceDriver, DuplicateFilterNamesCountEveryRepair)
{
    // Every filter named "F": the registry files all but the first
    // node's counters under "#k" names, and the summary must still
    // count them.
    const apps::App base = apps::makeComplexFirApp(2048);
    apps::App app = base;
    app.spec.clear();
    app.graph = streamit::StreamGraph();
    for (streamit::FilterSpec filter : base.graph.filters()) {
        filter.name = "F";
        app.graph.addFilter(std::move(filter));
    }
    for (const streamit::Edge &edge : base.graph.edges()) {
        app.graph.connect(edge.producer, edge.outPort, edge.consumer,
                          edge.inPort);
    }
    app.graph.setExternalInput(base.graph.externalInput().node,
                               base.graph.externalInput().port);
    app.graph.setExternalOutput(base.graph.externalOutput().node,
                                base.graph.externalOutput().port);

    const streamit::LoadOptions load = sweepOptions(
        protection::ProtectionMode::CommGuard, true, 16'000.0, 0);
    const ServiceOutcome service =
        ServiceDriver(oneBurstConfig(app, load)).run();
    const RunOutcome batch = runOnce(app, load);

    ASSERT_EQ(service.bursts, 1u);
    ASSERT_TRUE(batch.snapshot.hasCounter("node/F/errorsInjected#2"));
    EXPECT_GT(batch.errorsInjected(), 0u);
    EXPECT_EQ(service.errorsInjected, batch.errorsInjected());
    EXPECT_EQ(service.repairs, protection::repairTotal(batch.snapshot));
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
