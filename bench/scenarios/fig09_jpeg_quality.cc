/**
 * @file
 * Reproduces paper Figure 9: jpeg visual results with PSNR values at
 * MTBE = 128k, 512k, 2048k, 8192k. The paper reports 14.7, 18.6, 28.6,
 * and 35.6 dB (the last matching the error-free baseline). Images are
 * written to bench_out/fig09_mtbe<k>.ppm.
 */

#include <iostream>

#include "apps/app.hh"
#include "media/image.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    const int width = 256;
    const int height = 192;
    const apps::App app = apps::makeJpegApp(width, height, 50);

    std::cout << "=== Figure 9: jpeg quality vs MTBE (CommGuard) ===\n";
    std::cout << "error-free PSNR: " << sim::fmt(app.errorFreeQualityDb, 1)
              << " dB (paper: 35.6 dB)\n\n";

    sim::Table table(
        {"MTBE (insts)", "PSNR (dB)", "pad+discard", "image"});

    const std::vector<Count> points = {512'000, 2'048'000, 8'192'000,
                                       128'000};
    std::vector<sim::RunDescriptor> descriptors;
    for (Count mtbe : points) {
        descriptors.push_back(
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .mtbe(static_cast<double>(mtbe))
                .seed(3)
                .descriptor());
    }
    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    for (std::size_t i = 0; i < points.size(); ++i) {
        const Count mtbe = points[i];
        const sim::RunOutcome &outcome = outcomes[i];

        const std::string path = ctx.outputDir() + "/fig09_mtbe" +
                                 std::to_string(mtbe / 1000) + "k.ppm";
        media::writePpm(
            apps::jpegImageFromOutput(outcome.output, width, height),
            path);
        table.addRow({std::to_string(mtbe / 1000) + "k",
                      sim::fmt(outcome.qualityDb, 1),
                      std::to_string(outcome.paddedItems() +
                                     outcome.discardedItems()),
                      path});
    }

    ctx.publishTable("fig09_jpeg_quality", table);
    std::cout << "\nPaper shape: monotone quality improvement with "
                 "MTBE, approaching the error-free PSNR.\n";
}

const sim::ScenarioRegistrar registrar({
    "fig09_jpeg_quality",
    "jpeg PSNR and decoded images across MTBE under CommGuard",
    "Fig. 9",
    {"figure", "quality"},
    runScenario,
});

} // namespace
