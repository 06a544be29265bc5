/**
 * @file
 * Reproduces paper Figure 13: CommGuard's execution-time overhead —
 * extra header pushes/pops plus pipeline serialization at frame
 * boundaries — for varying frame sizes, relative to execution without
 * CommGuard. The paper measures this with lfence-instrumented runs on
 * real hardware and reports a 1% mean (worst ~4% for audiobeamformer
 * and complex-fir); our in-order cycle model charges the same two
 * costs.
 */

#include <cmath>
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
    std::cout << "=== Figure 13: CommGuard execution-time overhead vs "
                 "frame size (error-free; reference is execution "
                 "without CommGuard) ===\n\n";

    const std::vector<Count> scales = {1, 2, 4, 8};
    std::vector<std::string> headers = {"benchmark"};
    for (Count scale : scales)
        headers.push_back(scale == 1 ? std::string("default (%)")
                                     : std::to_string(scale) + "x (%)");
    sim::Table table(headers);

    // Per benchmark: one no-CommGuard reference plus one CommGuard
    // run per frame scale, all error-free, fanned out as one batch.
    std::vector<apps::App> apps_list;
    for (const std::string &name : apps::allAppNames())
        apps_list.push_back(apps::makeAppByName(name));
    std::vector<sim::RunDescriptor> descriptors;
    for (const apps::App &app : apps_list) {
        descriptors.push_back(
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::ReliableQueue)
                .noErrors()
                .descriptor());
        for (Count scale : scales) {
            descriptors.push_back(
                sim::ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .noErrors()
                    .frameScale(scale)
                    .descriptor());
        }
    }
    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    std::vector<double> log_sums(scales.size(), 0.0);
    std::size_t cursor = 0;
    for (const apps::App &app : apps_list) {
        const Cycle base = outcomes[cursor++].totalCycles();

        std::vector<std::string> row = {app.name};
        for (std::size_t i = 0; i < scales.size(); ++i) {
            const Cycle cg = outcomes[cursor++].totalCycles();
            const double pct =
                100.0 *
                (static_cast<double>(cg) - static_cast<double>(base)) /
                static_cast<double>(base);
            row.push_back(sim::fmt(pct, 2));
            log_sums[i] += std::log(std::max(pct, 1e-6));
        }
        table.addRow(std::move(row));
    }

    std::vector<std::string> gmean_row = {"GMean"};
    const double n = static_cast<double>(apps::allAppNames().size());
    for (double log_sum : log_sums)
        gmean_row.push_back(sim::fmt(std::exp(log_sum / n), 2));
    table.addRow(std::move(gmean_row));

    ctx.publishTable("fig13_runtime_overhead", table);
    std::cout << "\nPaper shape: ~1% mean overhead; fine-grained-frame "
                 "benchmarks (audiobeamformer, complex-fir) are the "
                 "worst cases; larger frames shrink the overhead.\n";
}

const sim::ScenarioRegistrar registrar({
    "fig13_runtime_overhead",
    "execution-time overhead vs frame size on the in-order cycle "
    "model",
    "Fig. 13",
    {"figure", "overhead"},
    runScenario,
});

} // namespace
