#include "sim/experiment.hh"

#include <algorithm>
#include <cmath>

#include "sim/env_options.hh"

namespace commguard::sim
{

RunOutcome
runOnce(const apps::App &app, const streamit::LoadOptions &options,
        RunScratch *scratch)
{
    streamit::LoadOptions effective = options;
    if (EnvOptions::get().traceEvents)
        effective.machine.traceEvents = true;
    if (effective.machine.telemetrySlices == 0)
        effective.machine.telemetrySlices =
            EnvOptions::get().telemetrySlices;

    streamit::LoadedApp loaded = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, effective,
        scratch != nullptr ? &scratch->loader : nullptr);

    const MachineRunResult machine_result = loaded.run();

    RunOutcome outcome;
    outcome.completed = machine_result.completed;
    outcome.output = loaded.collector->takeItems();
    outcome.qualityDb = app.quality(outcome.output);

    // The machine's registry already holds every component counter;
    // append the harness-level observables so the snapshot is the
    // run's complete record.
    outcome.snapshot = loaded.machine->metrics().snapshot();
    outcome.snapshot.setCounter("run/completed",
                                machine_result.completed ? 1 : 0);
    outcome.snapshot.setCounter("run/outputItems",
                                outcome.output.size());
    outcome.snapshot.setGauge("run/qualityDb", outcome.qualityDb);
    outcome.eventTrace = loaded.machine->eventTrace();
    outcome.telemetry = loaded.machine->telemetryRecorder();
    return outcome;
}

SampleStats
summarize(const std::vector<double> &samples)
{
    SampleStats stats;
    if (samples.empty())
        return stats;

    double sum = 0.0;
    stats.min = samples.front();
    stats.max = samples.front();
    for (double s : samples) {
        sum += s;
        stats.min = std::min(stats.min, s);
        stats.max = std::max(stats.max, s);
    }
    stats.mean = sum / static_cast<double>(samples.size());

    // One sample has no spread, and a non-finite mean (error-free
    // runs report +inf dB) would make the variance inf - inf = NaN.
    if (samples.size() == 1 || !std::isfinite(stats.mean)) {
        stats.stddev = 0.0;
        return stats;
    }

    double var = 0.0;
    for (double s : samples)
        var += (s - stats.mean) * (s - stats.mean);
    var /= static_cast<double>(samples.size());
    stats.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
    return stats;
}

const std::vector<Count> &
mtbeAxis()
{
    static const std::vector<Count> axis = {
        64'000,   128'000,  256'000,  512'000,
        1'024'000, 2'048'000, 4'096'000, 8'192'000,
    };
    return axis;
}

} // namespace commguard::sim
