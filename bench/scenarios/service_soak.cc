/**
 * @file
 * Service soak scenario (docs/SERVICE.md): a long-lived streaming run
 * over a cheap random pass-through graph, driven by the open-loop
 * bursty ServiceDriver through a mid-run MTBE degradation (~25% of the
 * frame budget) and a live graph remap (~50%). The soak re-proves the
 * service-mode contract under sustained load:
 *
 *  - liveness: every admitted frame drains, the run completes, and
 *    both scheduled events fire;
 *  - bounded memory: the source backlog never exceeds the admission
 *    bound (maxBacklogFrames worth of framed words), so an
 *    arbitrarily long run holds steady-state memory;
 *  - protection: errors are injected (including the degraded regime)
 *    and repairs are observed;
 *  - determinism (quick mode): a second run of the same config yields
 *    bitwise identical JSONL and summary bytes.
 *
 * Any violation is fatal after the table is published, so a soak
 * regression cannot pass silently. CG_QUICK=1 shrinks the frame budget
 * for smoke runs; the full run pushes >= 1M frames.
 */

#include <iostream>
#include <string>

#include "apps/app.hh"
#include "apps/random_graph_app.hh"
#include "common/logging.hh"
#include "sim/scenario.hh"
#include "sim/service_driver.hh"
#include "sim/sweep_runner.hh"
#include "sim/table.hh"
#include "streamit/loader.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    // A cheap rate-consistent pipeline: the soak budget goes into
    // frame count (service longevity), not per-frame compute. The
    // graph seed is fixed so the workload — like everything else in
    // the scenario — is a pure function of the configuration.
    apps::RandomGraphOptions shape;
    shape.stages = 4;
    shape.maxGranularity = 4;
    shape.allowSplitJoin = false;
    const apps::App app = apps::makeRandomGraphApp(0x5e41ce, shape, 4);

    const Count frames = ctx.quick() ? 20'000 : 1'000'000;

    sim::ServiceConfig config;
    config.app = &app;
    config.load = sim::sweepOptions(protection::ProtectionMode::CommGuard,
                                    true, 48'000.0, 0);
    config.totalFrames = frames;
    config.arrivalSeed = 11;
    config.meanBurstFrames = 32;
    config.meanGapSlices = 8;
    config.maxBacklogFrames = 256;
    config.snapshotEveryFrames = frames / 8;
    // Degrade one slot's error rate a quarter of the way in, then
    // live-remap the whole placement at the halfway mark — the soak
    // must ride through both without missing a frame.
    config.events.push_back(
        {sim::ServiceEvent::Kind::MtbeDegrade, frames / 4, 1, 8.0, 0});
    config.events.push_back(
        {sim::ServiceEvent::Kind::Remap, frames / 2, 0, 0, 1});

    const sim::ServiceOutcome outcome =
        sim::ServiceDriver(config).run();

    // The admission bound in words: each in-flight frame occupies at
    // most its input items plus the per-frame framing overhead (2),
    // plus the single end-of-computation header.
    streamit::LoadedApp probe =
        streamit::loadGraph(app.graph, app.input, 1, config.load);
    const std::size_t backlogBound =
        config.maxBacklogFrames *
            (probe.frames.inputItemsPerFrame + 2) +
        1;

    std::string failure;
    if (!outcome.completed)
        failure = "run did not complete";
    else if (outcome.framesCompleted != frames)
        failure = "admitted frames were lost";
    else if (outcome.eventsApplied != config.events.size())
        failure = "a scheduled event never fired";
    else if (outcome.maxBacklogWords > backlogBound)
        failure = "source backlog exceeded the admission bound";
    else if (outcome.errorsInjected == 0)
        failure = "soak run never injected an error";
    else if (outcome.repairs == 0)
        failure = "errors were injected but never repaired";
    else if (outcome.snapshots == 0)
        failure = "no live snapshot was emitted";

    // Re-running the identical config must reproduce every exported
    // byte. The full-budget run skips the replay — determinism does
    // not depend on scale, and the quick gate already pins it.
    if (failure.empty() && ctx.quick()) {
        const sim::ServiceOutcome replay =
            sim::ServiceDriver(config).run();
        if (replay.jsonl != outcome.jsonl ||
            replay.summary.dump() != outcome.summary.dump())
            failure = "replay diverged from the first run";
    }

    sim::Table table({"frames", "bursts", "rounds", "errors",
                      "repairs", "snapshots", "events",
                      "peak_backlog_words", "verdict"});
    table.addRow({std::to_string(outcome.framesCompleted),
                  std::to_string(outcome.bursts),
                  std::to_string(outcome.machineRounds),
                  std::to_string(outcome.errorsInjected),
                  std::to_string(outcome.repairs),
                  std::to_string(outcome.snapshots),
                  std::to_string(outcome.eventsApplied),
                  std::to_string(outcome.maxBacklogWords),
                  failure.empty() ? "ok" : "FAIL"});
    ctx.publishTable("service_soak", table);

    std::cout << "\n" << outcome.framesCompleted
              << " frames streamed through degradation + remap, peak "
                 "backlog "
              << outcome.maxBacklogWords << "/" << backlogBound
              << " words.\n";

    if (!failure.empty())
        fatal("service_soak: " + failure);
}

const sim::ScenarioRegistrar registrar({
    "service_soak",
    "long-lived streaming soak of the service driver",
    "docs/SERVICE.md",
    {"soak", "stress"},
    runScenario,
});

} // namespace
