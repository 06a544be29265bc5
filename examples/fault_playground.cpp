// fault_playground: a small CLI for exploring the simulator — pick a
// benchmark, a protection mode, an error rate, a frame-size scale and
// a seed, run it, and dump the run's metric snapshot.
//
// Usage:
//   fault_playground [app] [mode] [mtbe] [seed] [frame_scale]
//                    [--disasm]
//     app:   jpeg | mp3 | audiobeamformer | channelvocoder |
//            complex-fir | fft                (default jpeg)
//     mode:  ppu | reliable | commguard | error-free
//                                             (default commguard)
//     mtbe:  mean instructions between errors (default 512000)
//     seed:  RNG seed                         (default 1)
//     frame_scale: frames per CommGuard frame (default 1)
//     --disasm: also print each filter's work program

#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>

#include "apps/app.hh"
#include "isa/program.hh"
#include "sim/experiment.hh"
#include "sim/experiment_config.hh"

using namespace commguard;

int
main(int argc, char **argv)
{
    const std::string app_name = argc > 1 ? argv[1] : "jpeg";
    const std::string mode_name = argc > 2 ? argv[2] : "commguard";
    const double mtbe = argc > 3 ? std::atof(argv[3]) : 512000.0;
    const std::uint64_t seed =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1;
    const Count frame_scale =
        argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 1;

    bool inject = true;
    protection::ProtectionMode mode = protection::ProtectionMode::CommGuard;
    if (mode_name == "ppu") {
        mode = protection::ProtectionMode::Raw;
    } else if (mode_name == "reliable") {
        mode = protection::ProtectionMode::ReliableQueue;
    } else if (mode_name == "error-free") {
        inject = false;
    }

    const apps::App app = apps::makeAppByName(app_name);

    // The builder validates the CLI arguments (mtbe > 0, nonzero
    // frame scale) before any machine is built.
    sim::ExperimentConfig config =
        sim::ExperimentConfig::app(app).mode(mode).seed(seed);
    try {
        config.frameScale(frame_scale);
        if (inject)
            config.mtbe(mtbe);
        else
            config.noErrors();
    } catch (const std::invalid_argument &error) {
        std::fprintf(stderr, "invalid arguments: %s\n", error.what());
        return 1;
    }
    const streamit::LoadOptions &options = config.options();
    std::printf("app=%s mode=%s mtbe=%.0f seed=%llu frame_scale=%llu\n",
                app.name.c_str(), protection::protectionModeName(mode),
                mtbe,
                static_cast<unsigned long long>(seed),
                static_cast<unsigned long long>(frame_scale));
    std::printf("error-free baseline: %.1f dB\n\n",
                app.errorFreeQualityDb);

    bool disasm = false;
    for (int i = 1; i < argc; ++i) {
        if (std::string(argv[i]) == "--disasm")
            disasm = true;
    }

    // Run with full machine access so we can dump the stats tree.
    streamit::LoadedApp loaded = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, options);

    if (disasm) {
        std::printf("---- filter programs ----\n");
        for (const auto &core : loaded.machine->cores())
            std::printf("%s\n", isa::disassemble(core->program()).c_str());
    }
    const MachineRunResult result = loaded.run();

    const double quality = app.quality(loaded.output());
    std::printf("completed=%s  quality=%.2f dB  instructions=%llu  "
                "cycles=%llu\n",
                result.completed ? "yes" : "no", quality,
                static_cast<unsigned long long>(
                    result.totalInstructions),
                static_cast<unsigned long long>(result.totalCycles));
    std::printf("timeouts=%llu  deadlock_breaks=%llu\n\n",
                static_cast<unsigned long long>(result.timeoutsFired),
                static_cast<unsigned long long>(result.deadlockBreaks));

    std::printf("---- metric snapshot ----\n");
    const metrics::MetricSnapshot snapshot =
        loaded.machine->metrics().snapshot();
    for (const auto &[name, value] : snapshot.counters())
        std::printf("%s = %llu\n", name.c_str(),
                    static_cast<unsigned long long>(value));
    return 0;
}
