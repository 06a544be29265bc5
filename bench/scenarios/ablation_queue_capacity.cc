/**
 * @file
 * Ablation: inter-core queue capacity (DESIGN.md §7).
 *
 * The paper's QM uses a 320KB region split into 8 working sets
 * (§5.1). Capacity determines how much slack producers have before
 * blocking — and, under errors, how often the timeout machinery must
 * fire to keep the system live. This scenario sweeps the minimum
 * queue capacity on jpeg with and without errors.
 */

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
    std::cout << "=== Ablation: queue capacity (jpeg) ===\n\n";

    const apps::App app = apps::makeJpegApp();
    sim::Table table({"capacity (words)", "error-free cycles",
                      "PSNR @512k (dB)", "timeouts @512k"});

    for (std::size_t capacity :
         {std::size_t{256}, std::size_t{1} << 10, std::size_t{1} << 12,
          std::size_t{1} << 14}) {
        std::vector<sim::RunDescriptor> descriptors;
        descriptors.push_back(
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .noErrors()
                .queueCapacityWords(capacity)
                .descriptor());
        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            descriptors.push_back(
                sim::ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .queueCapacityWords(capacity)
                    .mtbe(512'000)
                    .seedIndex(seed)
                    .descriptor());
        }
        const std::vector<sim::RunOutcome> outcomes =
            ctx.runSweep(descriptors);

        const sim::RunOutcome &clean_run = outcomes.front();
        double quality_sum = 0.0;
        Count timeouts = 0;
        for (std::size_t i = 1; i < outcomes.size(); ++i) {
            quality_sum += outcomes[i].qualityDb;
            timeouts += outcomes[i].timeoutsFired();
        }

        table.addRow({std::to_string(capacity),
                      std::to_string(clean_run.totalCycles()),
                      sim::fmt(quality_sum / ctx.seeds(), 1),
                      std::to_string(timeouts)});
    }

    ctx.publishTable("ablation_queue_capacity", table);
    std::cout << "\nExpected: capacity barely affects error-free "
                 "cycles (cooperative slack), and ample capacity "
                 "keeps the QM timeout machinery idle.\n";
}

const sim::ScenarioRegistrar registrar({
    "ablation_queue_capacity",
    "minimum inter-core queue capacity vs cycles, quality and "
    "timeouts",
    "DESIGN.md §7 (paper §5.1)",
    {"ablation", "overhead"},
    runScenario,
});

} // namespace
