// Quickstart: build a tiny pipeline, run it on error-prone cores with
// CommGuard, and print quality plus realignment statistics.
//
// This is the smallest end-to-end use of the library: declare filters,
// connect them, load under a protection mode, run, inspect.

#include <cstdio>

#include "apps/app.hh"
#include "sim/experiment.hh"
#include "sim/experiment_config.hh"

using namespace commguard;

int
main()
{
    // The prepackaged fft benchmark is the simplest pipeline; run it
    // error-free first, then with errors under CommGuard.
    apps::App app = apps::makeFftApp(64);

    const sim::RunOutcome clean_run =
        sim::ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .noErrors()
            .run();
    std::printf("error-free: completed=%d quality=%.1f dB insts=%llu\n",
                clean_run.completed, clean_run.qualityDb,
                static_cast<unsigned long long>(
                    clean_run.totalInstructions()));

    const sim::RunOutcome noisy_run =
        sim::ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(256'000)
            .seed(42)
            .run();
    std::printf("mtbe=256k:  completed=%d quality=%.1f dB errors=%llu "
                "padded=%llu discarded=%llu watchdog=%llu\n",
                noisy_run.completed, noisy_run.qualityDb,
                static_cast<unsigned long long>(
                    noisy_run.errorsInjected()),
                static_cast<unsigned long long>(noisy_run.paddedItems()),
                static_cast<unsigned long long>(
                    noisy_run.discardedItems()),
                static_cast<unsigned long long>(
                    noisy_run.watchdogTrips()));
    return 0;
}
