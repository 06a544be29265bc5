/**
 * @file
 * Experiment harness: single runs, seed sweeps, and MTBE axes
 * reproducing the paper's methodology (§6): for every MTBE the
 * application runs 5 times with different random seeds and the mean and
 * deviation of output quality are reported.
 *
 * A run's complete observability record is its MetricSnapshot: every
 * counter any component registered during the run, flattened under the
 * stable names documented in docs/METRICS.md. RunOutcome is a thin
 * typed view over that snapshot — the named accessors below are the
 * aggregations the figures need, each computed by summing one metric
 * leaf across all components, so no per-field hand-copying exists
 * between the machine and the reporting layers.
 */

#ifndef COMMGUARD_SIM_EXPERIMENT_HH
#define COMMGUARD_SIM_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/event_trace.hh"
#include "common/metrics.hh"
#include "common/telemetry.hh"
#include "streamit/loader.hh"

namespace commguard::sim
{

/**
 * Observables of one run: the full metric snapshot plus the bulk
 * output stream, with typed accessors for the figure-level aggregates.
 */
struct RunOutcome
{
    /**
     * Every metric the machine registered during the run, plus the
     * harness-level run entries (run/completed, run/outputItems and
     * the run/qualityDb gauge). Single source for every accessor
     * below and for the JSONL/BENCH export layers.
     */
    metrics::MetricSnapshot snapshot;

    double qualityDb = 0.0;
    bool completed = false;

    /** The collected output stream (moved from the collector). */
    std::vector<Word> output;

    /**
     * The run's frame-lifecycle event trace (docs/TRACING.md); nullptr
     * unless tracing was enabled via MachineConfig::traceEvents or
     * CG_TRACE_EVENTS. Kept alive past the machine so the export
     * layers (Perfetto file, forensics record) can consume it.
     */
    std::shared_ptr<trace::EventTrace> eventTrace;

    /**
     * The run's in-run metric time series (docs/TELEMETRY.md); nullptr
     * unless sampling was enabled via MachineConfig::telemetrySlices
     * or CG_TELEMETRY_SLICES. Like the trace, kept alive past the
     * machine so the export layers can serialize it.
     */
    std::shared_ptr<telemetry::TelemetryRecorder> telemetry;

    // ------------------------------------------------------------------
    // Machine-level aggregates.
    // ------------------------------------------------------------------

    Count totalInstructions() const
    {
        return snapshot.total("committedInsts");
    }
    Cycle totalCycles() const { return snapshot.total("cycles"); }
    Count timeoutsFired() const
    {
        return snapshot.get("machine/timeoutsFired");
    }
    Count deadlockBreaks() const
    {
        return snapshot.get("machine/deadlockBreaks");
    }

    // ------------------------------------------------------------------
    // Core aggregates (summed over all nodes).
    // ------------------------------------------------------------------

    Count coreLoads() const { return snapshot.total("loads"); }
    Count coreStores() const { return snapshot.total("stores"); }
    Count errorsInjected() const
    {
        return snapshot.total("errorsInjected");
    }
    Count watchdogTrips() const
    {
        return snapshot.total("scopeWatchdogTrips");
    }
    Count invocations() const { return snapshot.total("invocations"); }

    /** Scheduler slices spent fully blocked on queues (stage profile). */
    Count blockedSlices() const
    {
        return snapshot.total("blockedSlices");
    }

    // ------------------------------------------------------------------
    // CommGuard aggregates (zero unless mode == CommGuard).
    // ------------------------------------------------------------------

    Count paddedItems() const { return snapshot.total("paddedItems"); }
    Count discardedItems() const
    {
        return snapshot.total("discardedItems");
    }
    Count discardedHeaders() const
    {
        return snapshot.total("discardedHeaders");
    }
    Count acceptedItems() const
    {
        return snapshot.total("acceptedItems");
    }
    Count headerLoads() const { return snapshot.total("headerLoads"); }
    Count headerStores() const
    {
        return snapshot.total("headerStores");
    }
    Count dataLoads() const { return snapshot.total("dataLoads"); }
    Count dataStores() const { return snapshot.total("dataStores"); }
    Count headerBitOps() const
    {
        return snapshot.total("headerBitOps");
    }
    Count worksetEccOps() const
    {
        return snapshot.total("worksetEccOps");
    }

    /** FSM transitions + active-fc counter updates (Table 2). */
    Count fsmCounterOps() const
    {
        return snapshot.total("fsmOps") + snapshot.total("counterOps");
    }

    /** ECC checks + recomputations, including working-set ECC. */
    Count eccOps() const
    {
        return snapshot.total("eccChecks") +
               snapshot.total("eccComputes") + worksetEccOps();
    }

    /** All CommGuard suboperations (Fig. 14's total). */
    Count totalCgOps() const
    {
        return fsmCounterOps() + eccOps() + headerBitOps() +
               snapshot.total("prepareHeaderOps");
    }

    /** Paper Fig. 8 metric: (padded + discarded) / accepted. */
    double
    dataLossRatio() const
    {
        const Count accepted = acceptedItems();
        if (accepted == 0)
            return 0.0;
        return static_cast<double>(paddedItems() + discardedItems()) /
               static_cast<double>(accepted);
    }
};

/** One independent run of a sweep. */
struct RunDescriptor
{
    const apps::App *app = nullptr;  //!< Not owned; must outlive run.
    streamit::LoadOptions options;
};

/**
 * Reusable per-worker run state (sweep hot path). Wraps the loader's
 * scratch; one per worker thread, never shared. Call beginBatch() at
 * the start of each batch of runs (it invalidates caches keyed by
 * graph addresses that may have been reused).
 */
struct RunScratch
{
    streamit::LoaderScratch loader;

    void beginBatch() { loader.beginBatch(); }
};

/**
 * Run one application once under the given options.
 *
 * @param scratch Optional reusable state; passing one does not change
 * the outcome (buffers are re-zeroed and caches copied pristine), it
 * only removes repeated large allocations from the hot path.
 */
RunOutcome runOnce(const apps::App &app,
                   const streamit::LoadOptions &options,
                   RunScratch *scratch = nullptr);

/** Mean / deviation summary of a sample set. */
struct SampleStats
{
    double mean = 0.0;
    double stddev = 0.0;
    double min = 0.0;
    double max = 0.0;
};

/**
 * Population mean/stddev/min/max of @p samples. Well-defined on the
 * degenerate inputs the sweeps produce: an empty set is all zeros, a
 * single sample has zero deviation, and a non-finite mean (error-free
 * runs report +inf dB) yields zero deviation instead of NaN.
 */
SampleStats summarize(const std::vector<double> &samples);

/** The paper's MTBE axis: {64, 128, 256, ..., 8192} * 1000 insts. */
const std::vector<Count> &mtbeAxis();

/** Paper methodology: five seeds per configuration. */
constexpr int seedsPerPoint = 5;

} // namespace commguard::sim

#endif // COMMGUARD_SIM_EXPERIMENT_HH
