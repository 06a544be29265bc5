/**
 * @file
 * Reproduces paper Figure 3: jpeg on 10 threads under four protection
 * mechanisms at a mean time between errors of 1M instructions per core.
 *
 *   (a) error-free cores                       -> pristine output
 *   (b) error-prone PPU cores, software queues -> catastrophic garbage
 *   (c) error-prone + reliable queues          -> still heavily garbled
 *   (d) error-prone + CommGuard                -> acceptable quality
 *
 * Prints mean PSNR per configuration and writes one decoded image per
 * configuration (seed 1) to bench_out/fig03_<config>.ppm.
 */

#include <iostream>

#include "apps/app.hh"
#include "media/image.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

struct ConfigRow
{
    const char *label;
    protection::ProtectionMode mode;
    bool inject;
};

void
runScenario(sim::ScenarioContext &ctx)
{
    const int width = 256;
    const int height = 192;
    const apps::App app = apps::makeJpegApp(width, height, 50);
    const double mtbe = 1'024'000;

    const ConfigRow rows[] = {
        {"(a) error-free cores", protection::ProtectionMode::ReliableQueue,
         false},
        {"(b) PPU cores, software queues",
         protection::ProtectionMode::Raw, true},
        {"(c) PPU cores, reliable queues",
         protection::ProtectionMode::ReliableQueue, true},
        {"(d) PPU cores, CommGuard", protection::ProtectionMode::CommGuard,
         true},
    };

    std::cout << "=== Figure 3: jpeg output vs protection mechanism "
                 "(MTBE = 1M insts/core) ===\n";
    std::cout << "error-free lossy baseline PSNR: "
              << sim::fmt(app.errorFreeQualityDb, 1) << " dB\n\n";

    std::vector<sim::RunDescriptor> descriptors;
    for (const ConfigRow &row : rows) {
        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            descriptors.push_back(sim::ExperimentConfig::app(app)
                                      .mode(row.mode)
                                      .injectErrors(row.inject)
                                      .mtbe(mtbe)
                                      .seedIndex(seed)
                                      .descriptor());
        }
    }
    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    sim::Table table({"configuration", "PSNR (dB, mean +- dev)",
                      "completed", "image"});

    std::size_t cursor = 0;
    for (const ConfigRow &row : rows) {
        std::vector<double> samples;
        std::string image_path = "-";
        bool all_completed = true;

        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            const sim::RunOutcome &outcome = outcomes[cursor++];
            samples.push_back(outcome.qualityDb);
            all_completed = all_completed && outcome.completed;

            if (seed == 0) {
                std::string name = row.label;
                const std::string config(1, name[1]);  // a/b/c/d
                image_path = ctx.outputDir() + "/fig03_" + config +
                             ".ppm";
                media::writePpm(apps::jpegImageFromOutput(
                                    outcome.output, width, height),
                                image_path);
            }
        }

        const sim::SampleStats stats = sim::summarize(samples);
        table.addRow({row.label,
                      sim::fmtMeanDev(stats.mean, stats.stddev, 1),
                      all_completed ? "yes" : "no", image_path});
    }

    ctx.publishTable("fig03_protection_configs", table);
    std::cout << "\nPaper shape: (a) pristine; (b) and (c) collapse; "
                 "(d) sustains acceptable quality.\n";
}

const sim::ScenarioRegistrar registrar({
    "fig03_protection_configs",
    "jpeg under four protection mechanisms at MTBE = 1M insts/core",
    "Fig. 3",
    {"figure", "quality"},
    runScenario,
});

} // namespace
