/**
 * @file
 * Validating fluent builder for experiment runs.
 *
 * Replaces raw streamit::LoadOptions construction in benches, examples
 * and tests:
 *
 *     const sim::RunOutcome outcome =
 *         sim::ExperimentConfig::app(jpeg)
 *             .mode(protection::ProtectionMode::CommGuard)
 *             .mtbe(256'000)
 *             .seedIndex(0)
 *             .run();
 *
 * Nonsense configurations (mtbe <= 0, a zero frame scale, a per-node
 * frame-scale vector whose length does not match the graph) are
 * rejected with std::invalid_argument when the option is set — before
 * any machine is built — instead of surfacing as a mid-run fatal() or
 * a silently meaningless sweep.
 */

#ifndef COMMGUARD_SIM_EXPERIMENT_CONFIG_HH
#define COMMGUARD_SIM_EXPERIMENT_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "sim/protection.hh"
#include "sim/sweep_runner.hh"

namespace commguard::sim
{

/**
 * A validated (app, LoadOptions) pair under construction. All setters
 * return *this for chaining; terminal operations are options(),
 * descriptor() and run().
 */
class ExperimentConfig
{
  public:
    /** Start a configuration for @p app (not owned; must outlive it). */
    static ExperimentConfig
    app(const apps::App &application)
    {
        return ExperimentConfig(application);
    }

    /** Protection configuration (paper Fig. 3). */
    ExperimentConfig &
    mode(protection::ProtectionMode value)
    {
        _options.mode = value;
        return *this;
    }

    /**
     * Protection mode by registered name ("raw", "commguard",
     * "replicate", ...). fatal() with the registered-name list on an
     * unknown name.
     */
    ExperimentConfig &
    mode(const std::string &name)
    {
        _options.mode = protection::parseProtectionMode(name);
        return *this;
    }

    /** Executions per firing for replicating modes; must be >= 2. */
    ExperimentConfig &replicas(int value);

    /** Mean instructions between errors; must be positive. */
    ExperimentConfig &mtbe(double value);

    /**
     * Heterogeneous error rates (docs/SERVICE.md): one MTBE per node
     * in graph node order. The vector length must equal the app
     * graph's node count and every entry must be positive. An empty
     * vector restores the uniform mtbe().
     */
    ExperimentConfig &perCoreMtbe(std::vector<double> mtbes);

    /** Disable error injection (error-free / overhead runs). */
    ExperimentConfig &
    noErrors()
    {
        _options.injectErrors = false;
        return *this;
    }

    ExperimentConfig &
    injectErrors(bool value)
    {
        _options.injectErrors = value;
        return *this;
    }

    /** Raw base RNG seed. */
    ExperimentConfig &
    seed(std::uint64_t value)
    {
        _options.seed = value;
        return *this;
    }

    /**
     * Canonical sweep seed for 0-based @p index, taken from
     * sweepOptions() (the one derivation), so builder-made runs join
     * sweep batches bit-identically.
     */
    ExperimentConfig &seedIndex(int index);

    /** Uniform frame scale (§5.4); must be nonzero. */
    ExperimentConfig &frameScale(Count value);

    /**
     * Per-node frame scales (§5.4); the vector length must equal the
     * app graph's node count and every entry must be nonzero. An empty
     * vector restores the uniform frameScale.
     */
    ExperimentConfig &perNodeFrameScale(std::vector<Count> scales);

    ExperimentConfig &
    flipAllRegisters(bool value)
    {
        _options.flipAllRegisters = value;
        return *this;
    }

    ExperimentConfig &
    guardSourceEdge(bool value)
    {
        _options.guardSourceEdge = value;
        return *this;
    }

    ExperimentConfig &
    frameAlignedOutput(bool value)
    {
        _options.frameAlignedOutput = value;
        return *this;
    }

    /** Minimum queue capacity in words; must be nonzero. */
    ExperimentConfig &queueCapacityWords(std::size_t words);

    ExperimentConfig &
    machine(const MachineConfig &config)
    {
        _options.machine = config;
        return *this;
    }

    /** Record the frame-lifecycle event trace (docs/TRACING.md). */
    ExperimentConfig &
    traceEvents(bool value)
    {
        _options.machine.traceEvents = value;
        return *this;
    }

    /**
     * Sample the metric registry every @p sample_slices scheduler
     * rounds into the run's TelemetryRecorder, retaining at most
     * @p ring_capacity interval samples (docs/TELEMETRY.md). 0 slices
     * disables sampling.
     */
    ExperimentConfig &
    telemetry(Count sample_slices, std::size_t ring_capacity = 512)
    {
        _options.machine.telemetrySlices = sample_slices;
        _options.machine.telemetryRingCapacity = ring_capacity;
        return *this;
    }

    // ------------------------------------------------------------------
    // Terminal operations.
    // ------------------------------------------------------------------

    /** The validated loader options. */
    const streamit::LoadOptions &options() const { return _options; }

    /** The app this configuration targets. */
    const apps::App &targetApp() const { return *_app; }

    /** As a sweep-queue entry. */
    RunDescriptor
    descriptor() const
    {
        return RunDescriptor{_app, _options};
    }

    /** Build the machine and run to completion. */
    RunOutcome run() const;

  private:
    explicit ExperimentConfig(const apps::App &application)
        : _app(&application)
    {}

    const apps::App *_app;
    streamit::LoadOptions _options;
};

} // namespace commguard::sim

#endif // COMMGUARD_SIM_EXPERIMENT_CONFIG_HH
