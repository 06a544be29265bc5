/**
 * @file
 * Reproduces paper Figure 10: output quality (mean and deviation over
 * 5 seeds) of jpeg (PSNR) and mp3 (SNR) across the full MTBE axis,
 * with mp3 additionally swept over 2x/4x/8x frame sizes (§5.4). The
 * paper's headline: at MTBE 512k, jpeg sustains ~20 dB (error-free
 * 35.6) and mp3 ~7.6 dB (error-free 9.4).
 */

#include <iostream>

#include "apps/app.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

void
sweepApp(sim::ScenarioContext &ctx, const apps::App &app,
         const std::vector<Count> &frame_scales)
{
    std::cout << "--- " << app.name << " (error-free "
              << sim::fmt(app.errorFreeQualityDb, 1) << " dB) ---\n";

    std::vector<std::string> headers = {"MTBE"};
    for (Count scale : frame_scales)
        headers.push_back(scale == 1
                              ? std::string("default frames (dB)")
                              : std::to_string(scale) + "x frames (dB)");
    sim::Table table(headers);

    for (Count mtbe : ctx.mtbeAxis()) {
        std::vector<std::string> row = {
            std::to_string(mtbe / 1000) + "k"};
        for (Count scale : frame_scales) {
            const std::vector<double> samples = ctx.qualitySamples(
                app, protection::ProtectionMode::CommGuard, true,
                static_cast<double>(mtbe), scale);
            const sim::SampleStats stats = sim::summarize(samples);
            row.push_back(
                sim::fmtMeanDev(stats.mean, stats.stddev, 1));
        }
        table.addRow(std::move(row));
    }
    ctx.publishTable("fig10_" + app.name, table);
    std::cout << "\n";
}

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Figure 10: jpeg PSNR and mp3 SNR vs MTBE "
                 "(CommGuard, mean +- dev over seeds) ===\n\n";

    sweepApp(ctx, apps::makeJpegApp(), {1});
    sweepApp(ctx, apps::makeMp3App(), ctx.frameScales());

    std::cout << "Paper shape: quality rises monotonically with MTBE "
                 "toward the error-free baseline; larger frames "
                 "realign less often and lose slightly more quality "
                 "per misalignment.\n";
}

const sim::ScenarioRegistrar registrar({
    "fig10_jpeg_mp3_quality",
    "jpeg PSNR and mp3 SNR vs MTBE with the mp3 frame-size sweep",
    "Fig. 10",
    {"figure", "quality"},
    runScenario,
});

} // namespace
