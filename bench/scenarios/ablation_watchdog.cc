/**
 * @file
 * Ablation: the PPU scope-watchdog margin (DESIGN.md §7).
 *
 * The watchdog force-completes a frame computation after
 * margin x static-estimate committed instructions. A loose margin
 * lets a corrupted loop counter flood downstream queues with garbage
 * items before the scope ends (more discarded data, worse quality); a
 * margin of 1 risks cutting legitimate work. This scenario sweeps the
 * margin on jpeg at MTBE = 512k.
 */

#include <cstdio>
#include <iostream>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Ablation: PPU watchdog margin (jpeg, "
                 "MTBE = 512k) ===\n\n";

    const apps::App app = apps::makeJpegApp();
    sim::Table table({"margin", "PSNR (dB, mean +- dev)",
                      "data loss", "watchdog trips"});

    for (Count margin : {1u, 2u, 4u, 8u, 16u}) {
        MachineConfig machine;
        machine.ppu.watchdogMultiplier = margin;
        std::vector<sim::RunDescriptor> descriptors;
        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            descriptors.push_back(
                sim::ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .mtbe(512'000)
                    .seedIndex(seed)
                    .machine(machine)
                    .descriptor());
        }

        std::vector<double> qualities;
        double loss_sum = 0.0;
        Count trips = 0;
        for (const sim::RunOutcome &outcome :
             ctx.runSweep(descriptors)) {
            qualities.push_back(outcome.qualityDb);
            loss_sum += outcome.dataLossRatio();
            trips += outcome.watchdogTrips();
        }
        const sim::SampleStats stats = sim::summarize(qualities);
        char loss[32];
        std::snprintf(loss, sizeof(loss), "%.2e",
                      loss_sum / ctx.seeds());
        table.addRow({std::to_string(margin) + "x",
                      sim::fmtMeanDev(stats.mean, stats.stddev, 1),
                      loss, std::to_string(trips)});
    }

    ctx.publishTable("ablation_watchdog", table);
    std::cout << "\nExpected: data loss grows with the margin "
                 "(runaway scopes push more garbage before being "
                 "cut); very tight margins trade that against "
                 "clipping legitimate variance.\n";
}

const sim::ScenarioRegistrar registrar({
    "ablation_watchdog",
    "PPU scope-watchdog margin vs data loss and quality",
    "DESIGN.md §7 (paper §4.4)",
    {"ablation", "quality"},
    runScenario,
});

} // namespace
