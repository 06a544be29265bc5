/**
 * @file
 * Reproduces paper Figure 12: CommGuard's overhead on memory events —
 * header loads/stores as a fraction of all processor loads/stores —
 * measured on error-free runs with CommGuard enabled. The paper
 * reports a geometric-mean increase below 0.2%, with the maximum for
 * audiobeamformer (0.66% loads / 0.75% stores), whose threads have
 * one-item frames.
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
    std::cout << "=== Figure 12: header memory events relative to all "
                 "processor loads/stores (error-free) ===\n\n";

    sim::Table table({"benchmark", "header loads (%)",
                      "header stores (%)"});

    // One error-free run per benchmark, fanned out as a batch. The
    // apps must outlive runSweep(), so build them all up front.
    std::vector<apps::App> apps_list;
    for (const std::string &name : apps::allAppNames())
        apps_list.push_back(apps::makeAppByName(name));
    std::vector<sim::RunDescriptor> descriptors;
    for (const apps::App &app : apps_list) {
        descriptors.push_back(
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .noErrors()
                .descriptor());
    }
    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    double load_log_sum = 0.0;
    double store_log_sum = 0.0;
    int counted = 0;

    for (std::size_t i = 0; i < apps_list.size(); ++i) {
        const sim::RunOutcome &o = outcomes[i];

        const double loads = static_cast<double>(
            o.coreLoads() + o.dataLoads() + o.headerLoads());
        const double stores = static_cast<double>(
            o.coreStores() + o.dataStores() + o.headerStores());
        const double load_pct =
            100.0 * static_cast<double>(o.headerLoads()) / loads;
        const double store_pct =
            100.0 * static_cast<double>(o.headerStores()) / stores;

        table.addRow({apps_list[i].name, sim::fmt(load_pct, 3),
                      sim::fmt(store_pct, 3)});
        if (load_pct > 0 && store_pct > 0) {
            load_log_sum += std::log(load_pct);
            store_log_sum += std::log(store_pct);
            ++counted;
        }
    }

    table.addRow({"GMean",
                  sim::fmt(std::exp(load_log_sum / counted), 3),
                  sim::fmt(std::exp(store_log_sum / counted), 3)});
    ctx.publishTable("fig12_memory_overhead", table);
    std::cout << "\nPaper shape: well under 1% everywhere; largest "
                 "for the one-item-frame threads (audiobeamformer/"
                 "channelvocoder).\n";
}

const sim::ScenarioRegistrar registrar({
    "fig12_memory_overhead",
    "header memory events relative to all processor loads/stores",
    "Fig. 12",
    {"figure", "overhead"},
    runScenario,
});

} // namespace
