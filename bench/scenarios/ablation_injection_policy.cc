/**
 * @file
 * Ablation: error-injection target policy (DESIGN.md §7).
 *
 * The paper injects into an x86 register file whose ~8 registers are
 * essentially all live. Our ISA has 31 registers, most unused by any
 * given kernel; flipping uniformly over all of them dilutes the
 * effective error rate. This scenario quantifies the dilution: jpeg
 * quality across MTBEs under live-set targeting (our default,
 * x86-faithful) vs all-register targeting.
 */

#include <iostream>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

double
meanQuality(sim::ScenarioContext &ctx, const apps::App &app,
            Count mtbe, bool flip_all)
{
    std::vector<sim::RunDescriptor> descriptors;
    for (int seed = 0; seed < ctx.seeds(); ++seed) {
        descriptors.push_back(
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .mtbe(static_cast<double>(mtbe))
                .seedIndex(seed)
                .flipAllRegisters(flip_all)
                .descriptor());
    }
    double sum = 0.0;
    for (const sim::RunOutcome &outcome : ctx.runSweep(descriptors))
        sum += outcome.qualityDb;
    return sum / ctx.seeds();
}

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Ablation: injection target policy (jpeg, "
                 "PSNR dB) ===\n\n";

    const apps::App app = apps::makeJpegApp();
    sim::Table table(
        {"MTBE", "live-set flips (default)", "all-register flips"});

    for (Count mtbe : ctx.mtbeAxis()) {
        table.addRow({std::to_string(mtbe / 1000) + "k",
                      sim::fmt(meanQuality(ctx, app, mtbe, false), 1),
                      sim::fmt(meanQuality(ctx, app, mtbe, true), 1)});
    }

    ctx.publishTable("ablation_injection_policy", table);
    std::cout << "\nExpected: all-register flips behave like live-set "
                 "flips at a several-times-larger MTBE (dead-register "
                 "hits are no-ops) — i.e., the right-hand column is "
                 "consistently higher quality at equal MTBE.\n";
}

const sim::ScenarioRegistrar registrar({
    "ablation_injection_policy",
    "live-set vs all-register error injection on jpeg quality",
    "DESIGN.md §7",
    {"ablation", "quality"},
    runScenario,
});

} // namespace
