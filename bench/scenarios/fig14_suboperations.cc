/**
 * @file
 * Reproduces paper Figure 14 (and the run-time side of Tables 2-3):
 * CommGuard suboperations — FSM/counter updates, ECC set/checks, and
 * header-bit checks — as a percentage of committed processor
 * instructions, on error-free runs. The paper reports a 2% geometric
 * mean with a 4.9% worst case (audiobeamformer); header-bit checks
 * dominate, ECC is the rarest.
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
    std::cout << "=== Figure 14: CommGuard suboperations relative to "
                 "committed instructions (error-free) ===\n\n";

    sim::Table table({"benchmark", "FSM/Counter (%)", "ECC (%)",
                      "HeaderBit (%)", "Total (%)"});

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

    double total_log_sum = 0.0;
    for (std::size_t i = 0; i < apps_list.size(); ++i) {
        const sim::RunOutcome &o = outcomes[i];

        const double insts =
            static_cast<double>(o.totalInstructions());
        const double fsm_pct =
            100.0 * static_cast<double>(o.fsmCounterOps()) / insts;
        const double ecc_pct =
            100.0 * static_cast<double>(o.eccOps()) / insts;
        const double hbit_pct =
            100.0 * static_cast<double>(o.headerBitOps()) / insts;
        const double total_pct =
            100.0 * static_cast<double>(o.totalCgOps()) / insts;

        table.addRow({apps_list[i].name, sim::fmt(fsm_pct, 3),
                      sim::fmt(ecc_pct, 3), sim::fmt(hbit_pct, 3),
                      sim::fmt(total_pct, 3)});
        total_log_sum += std::log(std::max(total_pct, 1e-9));
    }

    const double n = static_cast<double>(apps::allAppNames().size());
    table.addRow({"GMean", "", "", "",
                  sim::fmt(std::exp(total_log_sum / n), 3)});
    ctx.publishTable("fig14_suboperations", table);
    std::cout << "\nPaper shape: a few percent at most; header-bit "
                 "checks are the most frequent suboperation, ECC the "
                 "rarest.\n";
}

const sim::ScenarioRegistrar registrar({
    "fig14_suboperations",
    "CommGuard suboperation frequencies relative to committed "
    "instructions",
    "Fig. 14 / Tables 2-3",
    {"figure", "overhead"},
    runScenario,
});

} // namespace
