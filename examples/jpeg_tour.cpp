// jpeg_tour: decode a JPEG-style image on the simulated error-prone
// multicore under each protection configuration, write the resulting
// images, and print PSNR — a runnable version of the paper's Fig. 3
// story plus the Fig. 9 quality-vs-error-rate sweep.
//
// Usage: jpeg_tour [output_dir]   (default: example_out)

#include <cstdio>
#include <filesystem>
#include <string>

#include "apps/app.hh"
#include "media/image.hh"
#include "sim/experiment.hh"
#include "sim/experiment_config.hh"

using namespace commguard;

namespace
{

void
decodeAndSave(const apps::App &app, int width, int height,
              protection::ProtectionMode mode, bool inject, double mtbe,
              const std::string &path)
{
    sim::ExperimentConfig config =
        sim::ExperimentConfig::app(app).mode(mode).seed(2026);
    if (inject)
        config.mtbe(mtbe);
    else
        config.noErrors();
    const sim::RunOutcome outcome = config.run();
    media::writePpm(
        apps::jpegImageFromOutput(outcome.output, width, height), path);
    std::printf("%-34s PSNR %6.1f dB   pad+discard %8llu   %s\n",
                protection::protectionModeName(mode), outcome.qualityDb,
                static_cast<unsigned long long>(
                    outcome.paddedItems() + outcome.discardedItems()),
                path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "example_out";
    std::filesystem::create_directories(dir);

    const int width = 256;
    const int height = 192;
    const apps::App app = apps::makeJpegApp(width, height, 50);
    std::printf("jpeg decode on 10 simulated error-prone cores "
                "(error-free lossy baseline: %.1f dB)\n\n",
                app.errorFreeQualityDb);

    // Protection configurations at MTBE = 1M (the paper's Fig. 3).
    std::printf("-- protection configurations at MTBE = 1M --\n");
    decodeAndSave(app, width, height,
                  protection::ProtectionMode::ReliableQueue, false, 0,
                  dir + "/error_free.ppm");
    decodeAndSave(app, width, height, protection::ProtectionMode::Raw,
                  true, 1e6, dir + "/software_queues.ppm");
    decodeAndSave(app, width, height,
                  protection::ProtectionMode::ReliableQueue, true, 1e6,
                  dir + "/reliable_queues.ppm");
    decodeAndSave(app, width, height,
                  protection::ProtectionMode::CommGuard, true, 1e6,
                  dir + "/commguard.ppm");

    // Error-rate sweep with CommGuard (the paper's Fig. 9).
    std::printf("\n-- CommGuard across error rates --\n");
    for (double mtbe : {128e3, 512e3, 2048e3, 8192e3}) {
        decodeAndSave(app, width, height,
                      protection::ProtectionMode::CommGuard, true, mtbe,
                      dir + "/commguard_mtbe" +
                          std::to_string(static_cast<int>(mtbe / 1000)) +
                          "k.ppm");
    }

    std::printf("\nOpen the .ppm files to see the corruption patterns: "
                "stripes realign at frame boundaries under CommGuard.\n");
    return 0;
}
