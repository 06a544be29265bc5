/**
 * @file
 * Ablation: the frame-boundary serialization cost (DESIGN.md §7).
 *
 * Fig. 13's overhead has two components: header queue traffic and the
 * pipeline flush charged at every frame computation because CommGuard
 * serializes push/pop against the active-fc update (paper §5.3). This
 * scenario sweeps the modeled flush depth and reports the
 * geometric-mean execution-time overhead, showing how the paper's ~1%
 * result depends on serialization being nearly free.
 */

#include <cmath>
#include <iostream>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

sim::RunDescriptor
descriptorFor(const apps::App &app, protection::ProtectionMode mode,
              Cycle flush)
{
    MachineConfig machine;
    machine.timing.frameFlushCycles = flush;
    return sim::ExperimentConfig::app(app)
        .mode(mode)
        .noErrors()
        .machine(machine)
        .descriptor();
}

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Ablation: frame-boundary flush cost vs "
                 "CommGuard runtime overhead ===\n\n";

    const std::vector<Cycle> depths = {0, 2, 4, 8, 14, 30};
    std::vector<std::string> headers = {"benchmark"};
    for (Cycle d : depths)
        headers.push_back(std::to_string(d) + " cyc (%)");
    sim::Table table(headers);

    std::vector<apps::App> apps_list;
    for (const std::string &name : apps::allAppNames())
        apps_list.push_back(apps::makeAppByName(name));
    std::vector<sim::RunDescriptor> descriptors;
    for (const apps::App &app : apps_list) {
        descriptors.push_back(descriptorFor(
            app, protection::ProtectionMode::ReliableQueue, 0));
        for (Cycle depth : depths) {
            descriptors.push_back(descriptorFor(
                app, protection::ProtectionMode::CommGuard, depth));
        }
    }
    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    std::vector<double> log_sums(depths.size(), 0.0);
    std::size_t cursor = 0;
    for (const apps::App &app : apps_list) {
        const Cycle base = outcomes[cursor++].totalCycles();
        std::vector<std::string> row = {app.name};
        for (std::size_t i = 0; i < depths.size(); ++i) {
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

    std::vector<std::string> gmean = {"GMean"};
    const double n = static_cast<double>(apps::allAppNames().size());
    for (double s : log_sums)
        gmean.push_back(sim::fmt(std::exp(s / n), 2));
    table.addRow(std::move(gmean));

    ctx.publishTable("ablation_flush_cost", table);
    std::cout << "\nExpected: overhead at 0 cycles is pure header "
                 "traffic; each added flush cycle hits the one-item-"
                 "frame benchmarks hardest.\n";
}

const sim::ScenarioRegistrar registrar({
    "ablation_flush_cost",
    "frame-boundary flush depth vs CommGuard runtime overhead",
    "DESIGN.md §7 (calibrates Fig. 13)",
    {"ablation", "overhead"},
    runScenario,
});

} // namespace
