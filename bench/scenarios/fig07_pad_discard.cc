/**
 * @file
 * Reproduces paper Figure 7: an example jpeg run with CommGuard at an
 * MTBE of 512k instructions, reporting the pad/discard realignment
 * operations CommGuard performed (the paper's run needed 16 for the
 * full image) and the resulting PSNR. The decoded image is written to
 * bench_out/fig07.ppm; corrupted stripes correspond to the frames
 * CommGuard realigned, and frames after each realignment restart
 * cleanly — the ephemeral-error property.
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

    const sim::RunOutcome outcome =
        ctx.runOne(sim::ExperimentConfig::app(app)
                       .mode(protection::ProtectionMode::CommGuard)
                       .mtbe(512'000)
                       .seed(1)
                       .descriptor());

    std::cout << "=== Figure 7: jpeg with CommGuard at MTBE = 512k ===\n";
    sim::Table table({"metric", "value"});
    table.addRow({"completed", outcome.completed ? "yes" : "no"});
    table.addRow({"PSNR (dB)", sim::fmt(outcome.qualityDb, 1)});
    table.addRow({"error-free PSNR (dB)",
                  sim::fmt(app.errorFreeQualityDb, 1)});
    table.addRow({"errors injected",
                  std::to_string(outcome.errorsInjected())});
    table.addRow({"padded items",
                  std::to_string(outcome.paddedItems())});
    table.addRow(
        {"discarded items", std::to_string(outcome.discardedItems())});
    table.addRow({"discarded headers",
                  std::to_string(outcome.discardedHeaders())});
    table.addRow({"accepted items",
                  std::to_string(outcome.acceptedItems())});
    table.addRow({"watchdog trips",
                  std::to_string(outcome.watchdogTrips())});
    ctx.publishTable("fig07_pad_discard", table);

    const std::string path = ctx.outputDir() + "/fig07.ppm";
    media::writePpm(
        apps::jpegImageFromOutput(outcome.output, width, height), path);
    std::cout << "\ndecoded image: " << path
              << " (8-pixel-high stripes are the frames; realigned "
                 "stripes recover cleanly)\n";
}

const sim::ScenarioRegistrar registrar({
    "fig07_pad_discard",
    "pad/discard realignment operations in one CommGuard jpeg run",
    "Fig. 7",
    {"figure", "quality"},
    runScenario,
});

} // namespace
