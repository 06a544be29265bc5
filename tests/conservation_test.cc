/**
 * @file
 * Flow-conservation invariants across the whole machine: for every
 * queue in every benchmark, words pushed equal words popped plus the
 * residue still queued — no queue implementation ever loses or
 * fabricates words, with or without errors. (Erroneous *threads* may
 * of course push the wrong number of words; that is what CommGuard
 * repairs — but the queues themselves must be conservative, otherwise
 * the realignment accounting of Figs. 7-8 would be meaningless.)
 */

#include <gtest/gtest.h>

#include "sim/experiment.hh"
#include "sim/experiment_config.hh"
#include "streamit/loader.hh"
#include "test_util.hh"

namespace commguard
{
namespace
{

using streamit::LoadOptions;
using protection::ProtectionMode;

void
expectConservation(streamit::LoadedApp &app, const std::string &label)
{
    for (const auto &queue : app.machine->queues()) {
        const QueueCounters &c = queue->counters();
        if (queue.get() == app.source || queue.get() == app.collector)
            continue;  // I/O devices have their own semantics.
        EXPECT_EQ(c.pushes, c.pops + queue->size())
            << label << " queue " << queue->name();
    }
}

class Conservation : public ::testing::TestWithParam<std::string>
{
};

/** Small app variants (mirrors apps_test). */
apps::App
makeSmallApp(const std::string &name)
{
    if (name == "jpeg")
        return apps::makeJpegApp(64, 32, 50);
    if (name == "mp3")
        return apps::makeMp3App(2048);
    if (name == "audiobeamformer")
        return apps::makeBeamformerApp(2048);
    if (name == "channelvocoder")
        return apps::makeChannelVocoderApp(2048);
    if (name == "complex-fir")
        return apps::makeComplexFirApp(2048);
    return apps::makeFftApp(64);
}

TEST_P(Conservation, ErrorFreeQueuesBalanceExactly)
{
    const apps::App app = makeSmallApp(GetParam());
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    streamit::LoadedApp loaded = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, options);
    ASSERT_TRUE(loaded.run().completed);
    expectConservation(loaded, GetParam() + "/error-free");

    // End-to-end word accounting on the consumer side: every pop a
    // core issued was answered by an accepted item or padding.
    Count pops = 0;
    for (const auto &core : loaded.machine->cores())
        pops += core->counters().queuePops;
    Count answered = 0;
    for (CommGuardBackend *backend : test::commGuardBackends(*loaded.machine)) {
        answered += backend->counters().acceptedItems +
                    backend->counters().paddedItems;
    }
    EXPECT_EQ(pops, answered);
}

TEST_P(Conservation, ErroneousQueuesStillBalance)
{
    const apps::App app = makeSmallApp(GetParam());
    for (ProtectionMode mode :
         {ProtectionMode::ReliableQueue, ProtectionMode::CommGuard}) {
        LoadOptions options;
        options.mode = mode;
        options.injectErrors = true;
        options.mtbe = 50'000;
        options.seed = 13;
        streamit::LoadedApp loaded = streamit::loadGraph(
            app.graph, app.input, app.steadyIterations, options);
        ASSERT_TRUE(loaded.run().completed);
        expectConservation(loaded,
                           GetParam() + std::string("/") +
                               protection::protectionModeName(mode));
    }
    // (SoftwareQueue is exempt: pointer corruption *is* word loss —
    // that is the Fig. 3b failure mode.)
}

/**
 * Registry-level conservation, through the snapshot every reporting
 * layer consumes (one MTBE point, every app, every mode): in CommGuard
 * mode each core pop is answered by exactly one accepted or padded
 * item, items leave guarded queues only as accepted/discarded data or
 * header traffic, and realignment counters (padding in particular) are
 * exclusive to CommGuard mode.
 */
TEST_P(Conservation, SnapshotCountersConserve)
{
    const apps::App app = makeSmallApp(GetParam());
    for (ProtectionMode mode :
         {ProtectionMode::Raw, ProtectionMode::ReliableQueue,
          ProtectionMode::CommGuard}) {
        SCOPED_TRACE(protection::protectionModeName(mode));
        const sim::RunOutcome outcome = sim::ExperimentConfig::app(app)
                                            .mode(mode)
                                            .mtbe(256'000)
                                            .seed(21)
                                            .run();
        const metrics::MetricSnapshot &s = outcome.snapshot;
        if (mode == ProtectionMode::CommGuard) {
            // Every consumer pop answered by an accepted item or a
            // fabricated pad — nothing lost, nothing double-counted.
            EXPECT_EQ(s.total("queuePops"),
                      s.total("acceptedItems") + s.total("paddedItems"));
            // Every data word the AMs consumed was either delivered
            // or discarded — the producer side of the same ledger.
            EXPECT_EQ(s.total("dataLoads"),
                      s.total("acceptedItems") +
                          s.total("discardedItems"));
            // Accepted + discarded data came out of producer pushes
            // (the rest of the pushed words are headers or residue;
            // the totals include the I/O device queues, which only
            // widens the bound).
            EXPECT_LE(s.total("acceptedItems") +
                          s.total("discardedItems"),
                      s.total("pushes"));
        } else {
            // Realignment metrics exist only under CommGuard.
            EXPECT_EQ(s.total("paddedItems"), 0u);
            EXPECT_EQ(s.total("discardedItems"), 0u);
            EXPECT_EQ(s.total("acceptedItems"), 0u);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, Conservation,
    ::testing::ValuesIn(apps::allAppNames()),
    [](const auto &info) {
        std::string name = info.param;
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    });

} // namespace
} // namespace commguard
