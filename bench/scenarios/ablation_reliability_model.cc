/**
 * @file
 * Rely-style frame reliability analysis (paper §9 future work).
 *
 * The paper argues that CommGuard's frame confinement is exactly what
 * lets a Rely-style analysis compute application reliability for
 * streaming data: "the reliability analysis can capture that error
 * effects do not propagate across frame boundaries."
 *
 * This scenario validates that claim on the jpeg benchmark: a
 * closed-form model (Poisson errors over the instructions each frame
 * spends on every core) predicts an upper bound on the fraction of
 * affected output frames; the measured corrupted-stripe fraction must
 * stay at or below the bound and track its shape across MTBEs.
 * Without frame confinement the measured fraction would approach 1 as
 * soon as any error occurred (every stripe after the first
 * misalignment would be corrupted).
 */

#include <iostream>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/reliability.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Ablation: Rely-style frame reliability model "
                 "(paper SS9) on jpeg ===\n\n";

    const int width = 256;
    const int height = 192;
    const apps::App app = apps::makeJpegApp(width, height, 50);
    const Count items_per_frame =
        static_cast<Count>(width) * 8 * 3;  // One 8-pixel stripe.

    const sim::ReliabilityModel model =
        sim::buildReliabilityModel(app);
    std::cout << "machine instructions per frame (all cores): "
              << sim::fmt(model.totalInstsPerFrame / 1e6, 2)
              << "M\n\n";

    // Error-free reference output for frame-exact comparison.
    const std::vector<Word> reference =
        ctx.runOne(sim::ExperimentConfig::app(app)
                       .mode(protection::ProtectionMode::CommGuard)
                       .noErrors()
                       .descriptor())
            .output;

    sim::Table table({"MTBE", "predicted bound", "measured (mean)",
                      "sensitivity"});

    for (Count mtbe : ctx.mtbeAxis()) {
        const double bound =
            model.frameAffectedBound(static_cast<double>(mtbe));

        std::vector<sim::RunDescriptor> descriptors;
        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            descriptors.push_back(
                sim::ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .mtbe(static_cast<double>(mtbe))
                    .seedIndex(seed)
                    .descriptor());
        }
        double sum = 0.0;
        for (const sim::RunOutcome &outcome :
             ctx.runSweep(descriptors)) {
            sum += sim::corruptedFrameFraction(
                reference, outcome.output, items_per_frame);
        }
        const double measured =
            sum / static_cast<double>(ctx.seeds());

        table.addRow({std::to_string(mtbe / 1000) + "k",
                      sim::fmt(bound, 4), sim::fmt(measured, 4),
                      bound > 0 ? sim::fmt(measured / bound, 3)
                                : "-"});
    }

    ctx.publishTable("ablation_reliability_model", table);
    std::cout << "\nExpected: measured <= predicted bound at every "
                 "MTBE — the signature of error effects confined to "
                 "frames (the bound counts every injected error; the "
                 "gap is errors masked before reaching the output).\n";
}

const sim::ScenarioRegistrar registrar({
    "ablation_reliability_model",
    "Rely-style Poisson bound vs measured corrupted-frame fraction",
    "Paper §9",
    {"ablation", "quality"},
    runScenario,
});

} // namespace
