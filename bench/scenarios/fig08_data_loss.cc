/**
 * @file
 * Reproduces paper Figure 8: the ratio of lost data (padded plus
 * discarded items) to accepted data across MTBEs, for all six
 * benchmarks running under CommGuard. The paper reports losses below
 * 0.2% for five benchmarks even at the extreme 64k MTBE, with jpeg
 * losing the most because it has the lowest frame/item ratio.
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
    std::cout << "=== Figure 8: data-loss ratio (padded+discarded / "
                 "accepted) vs MTBE ===\n\n";

    const std::vector<Count> &axis = ctx.mtbeAxis();

    std::vector<std::string> headers = {"benchmark"};
    for (Count mtbe : axis)
        headers.push_back(std::to_string(mtbe / 1000) + "k");
    sim::Table table(headers);

    for (const std::string &name : apps::allAppNames()) {
        const apps::App app = apps::makeAppByName(name);

        // Fan the whole (mtbe x seed) matrix for this app out across
        // CG_JOBS host threads; outcomes stay in submission order.
        std::vector<sim::RunDescriptor> descriptors;
        for (Count mtbe : axis) {
            for (int seed = 0; seed < ctx.seeds(); ++seed) {
                descriptors.push_back(
                    sim::ExperimentConfig::app(app)
                        .mode(protection::ProtectionMode::CommGuard)
                        .mtbe(static_cast<double>(mtbe))
                        .seedIndex(seed)
                        .descriptor());
            }
        }
        const std::vector<sim::RunOutcome> outcomes =
            ctx.runSweep(descriptors);

        std::vector<std::string> row = {name};
        std::size_t cursor = 0;
        for (Count mtbe : axis) {
            (void)mtbe;
            double sum = 0.0;
            for (int seed = 0; seed < ctx.seeds(); ++seed)
                sum += outcomes[cursor++].dataLossRatio();
            const double mean =
                sum / static_cast<double>(ctx.seeds());
            char buffer[32];
            std::snprintf(buffer, sizeof(buffer), "%.2e", mean);
            row.push_back(buffer);
        }
        table.addRow(std::move(row));
    }

    ctx.publishTable("fig08_data_loss", table);
    std::cout << "\nPaper shape: loss shrinks with MTBE; jpeg loses "
                 "the most (lowest frame/item ratio).\n";
}

const sim::ScenarioRegistrar registrar({
    "fig08_data_loss",
    "data-loss ratio (padded+discarded / accepted) vs MTBE, 6 "
    "benchmarks",
    "Fig. 8",
    {"figure", "quality"},
    runScenario,
});

} // namespace
