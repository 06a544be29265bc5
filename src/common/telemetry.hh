/**
 * @file
 * In-run time-series sampling of the metric registry.
 *
 * The per-run MetricSnapshot says what a run did *in total*; the
 * TelemetryRecorder says how that total accrued *over simulated time*.
 * The machine's scheduler samples the registry on a slice cadence
 * (MachineConfig::telemetrySlices); each sample stores only the
 * counters that moved since the previous one as sparse
 * (counter-index, increment) pairs — per-interval rates, not running
 * totals — in a bounded ring.
 *
 * When the ring overflows, the oldest sample is folded into a base
 * vector instead of being discarded, so the identity
 *
 *     base + sum(retained deltas) == the registry's current values
 *
 * holds for the whole run regardless of how many samples were dropped.
 * That conservation property is what lets the export layer, the
 * sim::checkTelemetryStream() validator and the tests reconcile the final
 * sample 1:1 against the run's MetricSnapshot.
 *
 * Determinism: sampling is keyed on the deterministic scheduler round
 * counter and reads only simulation state, so the recorded series (and
 * everything serialized from it) is bitwise identical for any CG_JOBS.
 * Host-side pool/ statistics are deliberately NOT sampled here; they
 * join sweep-level telemetry only (docs/TELEMETRY.md).
 */

#ifndef COMMGUARD_COMMON_TELEMETRY_HH
#define COMMGUARD_COMMON_TELEMETRY_HH

#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hh"
#include "common/types.hh"

namespace commguard::telemetry
{

/**
 * Version of the telemetry record schema (the JSONL stream written
 * under CG_TELEMETRY_OUT). Independent of metrics::kSchemaVersion:
 * the sample layout can evolve without invalidating run records.
 */
constexpr int kTelemetrySchemaVersion = 1;

/** Recorder configuration (set through MachineConfig). */
struct TelemetryConfig
{
    /** Sample every N scheduler rounds; 0 disables sampling. */
    Count sampleSlices = 0;

    /** Retained interval samples before the ring folds into base. */
    std::size_t ringCapacity = 512;
};

/** One delta-compressed interval sample. */
struct TelemetrySample
{
    Count index = 0;   //!< 0-based over every sample taken this run.
    Count slice = 0;   //!< Scheduler round at sampling time.
    Cycle cycles = 0;  //!< Total machine cycles at sampling time.
    bool final = false;  //!< Recorded at end of run.

    /** (counter index, increment since previous sample), sparse and
     *  index-sorted. Counter indices address names(). */
    std::vector<std::pair<std::uint32_t, Count>> deltas;
};

/**
 * Bounded delta-ring recorder over one run's metrics::Registry.
 * Owned by the Multicore (shared so RunOutcome can keep it alive past
 * the machine, like the event trace).
 */
class TelemetryRecorder
{
  public:
    explicit TelemetryRecorder(TelemetryConfig config)
        : _config(config)
    {
        if (_config.ringCapacity == 0)
            _config.ringCapacity = 1;
    }

    /**
     * Snapshot @p registry and record the per-counter increments since
     * the previous sample. The first call fixes the counter-name table
     * (every component has registered by the time the scheduler runs).
     * @p final marks the end-of-run sample the export layer reconciles
     * against the run's MetricSnapshot.
     */
    void sample(const metrics::Registry &registry, Count slice,
                Cycle cycles, bool final = false);

    /** Counter-name table (sorted, fixed at the first sample). */
    const std::vector<std::string> &names() const { return _names; }

    /** Retained interval samples, oldest first. */
    const std::deque<TelemetrySample> &samples() const
    {
        return _samples;
    }

    /** Every sample taken, including ones folded into the base. */
    Count samplesTaken() const { return _taken; }

    /** Samples folded into the base when the ring overflowed. */
    Count droppedSamples() const { return _dropped; }

    /**
     * base + every retained delta: the registry's counter values as of
     * the last sample. With a final sample recorded this reconciles
     * 1:1 with the run's MetricSnapshot (conservation).
     */
    std::vector<Count> cumulative() const;

  private:
    TelemetryConfig _config;
    std::vector<std::string> _names;
    std::vector<Count> _previous;  //!< Values at the last sample.
    std::vector<Count> _base;      //!< Folded-away sample totals.
    std::deque<TelemetrySample> _samples;
    Count _taken = 0;
    Count _dropped = 0;
};

} // namespace commguard::telemetry

#endif // COMMGUARD_COMMON_TELEMETRY_HH
