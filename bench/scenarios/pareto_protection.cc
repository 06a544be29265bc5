/**
 * @file
 * Protection-mode Pareto sweep: output quality vs execution-time
 * overhead for every registered protection backend across the MTBE
 * axis. This is the registry's headline experiment — the paper argues
 * CommGuard occupies the useful middle ground between no protection
 * (Fig. 3b) and full redundancy (§2, §7 related work); with
 * replication and ABFT registered as peer backends the trade-off is
 * measurable instead of cited.
 *
 * Per (mode, MTBE) cell: quality over the canonical seeds with error
 * injection, plus one error-free run per mode whose cycle count is
 * compared against the error-free raw baseline for the overhead
 * column. Repair activity is summed over backend-specific leaves
 * (cg/ pads+discards, repl/ vote corrections, abft/ corrected items)
 * so the table stays meaningful for backends registered later.
 */

#include <cmath>
#include <iostream>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/protection.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Protection-mode Pareto: quality vs overhead "
                 "per registered backend (complex-fir) ===\n\n";

    // complex-fir: every backend (including the software-queue modes)
    // runs exactly when error-free, so the overhead column measures
    // protection cost rather than inherited timeout thrash.
    const apps::App app = apps::makeAppByName("complex-fir");
    const std::vector<protection::ProtectionMode> modes =
        ctx.modesToRun();
    const std::vector<Count> &mtbe_axis = ctx.mtbeAxis();

    // One batch: the error-free reliable-queue baseline (the Fig. 13
    // reference — raw thrashes the timeout machinery even error-free),
    // one error-free run per mode (overhead numerator), then seeds()
    // injected runs per (mode, mtbe) cell.
    std::vector<sim::RunDescriptor> descriptors;
    descriptors.push_back(sim::ExperimentConfig::app(app)
                              .mode("reliable-queue")
                              .noErrors()
                              .descriptor());
    for (protection::ProtectionMode mode : modes) {
        descriptors.push_back(sim::ExperimentConfig::app(app)
                                  .mode(mode)
                                  .noErrors()
                                  .descriptor());
    }
    for (protection::ProtectionMode mode : modes) {
        for (Count mtbe : mtbe_axis) {
            for (int seed = 0; seed < ctx.seeds(); ++seed) {
                descriptors.push_back(
                    sim::RunDescriptor{&app,
                                       sim::sweepOptions(
                                           mode, true,
                                           static_cast<double>(mtbe),
                                           seed)});
            }
        }
    }
    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    std::size_t cursor = 0;
    const double base_cycles =
        static_cast<double>(outcomes[cursor++].totalCycles());

    std::vector<double> overhead_pct;
    overhead_pct.reserve(modes.size());
    for (std::size_t m = 0; m < modes.size(); ++m) {
        const double cycles =
            static_cast<double>(outcomes[cursor++].totalCycles());
        overhead_pct.push_back(100.0 * (cycles - base_cycles) /
                               base_cycles);
    }

    sim::Table table({"mode", "mtbe (k insts)", "quality (dB)",
                      "repaired items", "overhead (%)"});
    for (std::size_t m = 0; m < modes.size(); ++m) {
        const protection::ProtectionMode mode = modes[m];
        for (Count mtbe : mtbe_axis) {
            std::vector<double> samples;
            Count repaired = 0;
            for (int seed = 0; seed < ctx.seeds(); ++seed) {
                const sim::RunOutcome &outcome = outcomes[cursor++];
                samples.push_back(outcome.qualityDb);
                repaired += protection::repairTotal(outcome.snapshot);
            }
            const sim::SampleStats stats = sim::summarize(samples);
            table.addRow(
                {protection::protectionModeName(mode),
                 std::to_string(mtbe / 1000),
                 sim::fmtMeanDev(stats.mean, stats.stddev, 1),
                 std::to_string(repaired),
                 sim::fmt(overhead_pct[m], 2)});
        }
    }

    ctx.publishTable("pareto_protection", table);
    std::cout << "\nExpected shape: commguard holds quality at a few "
                 "percent overhead; replicate matches it for roughly "
                 "one extra execution per replica; abft corrects "
                 "in-queue value corruption cheaply but cannot restore "
                 "stream alignment after structural corruption, so "
                 "commguard dominates it — the registry makes that "
                 "trade-off measurable.\n";
}

const sim::ScenarioRegistrar registrar({
    "pareto_protection",
    "quality vs overhead for every registered protection backend "
    "across the MTBE axis",
    "DESIGN.md, protection-backend API",
    {"pareto", "protection"},
    runScenario,
});

} // namespace
