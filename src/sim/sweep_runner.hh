/**
 * @file
 * Deterministic parallel experiment engine.
 *
 * Every evaluation sweep (figures, ablations, §6 methodology) is a set
 * of independent runs: each (app, mode, mtbe, seed, frameScale)
 * descriptor builds its own self-contained Multicore with per-core
 * seeded RNGs, so runs share no mutable state. SweepRunner owns the
 * whole sweep — the queued descriptors, the ThreadPool that executes
 * them, one reusable RunScratch per pool job slot, submission-order
 * result collection, progress reporting and artifact writes — with an
 * optional content-addressed result cache in front
 * (sim/result_cache.hh, CG_CACHE_DIR).
 *
 * Determinism guarantee: the outcome vector is bitwise identical for
 * any job count and cache hit/miss history, because all randomness
 * lives in per-run seeded RNGs and the engine only decides *when* a
 * run executes, never what it computes. Export artifacts (CG_JSONL
 * lines from runRecordJson(), Perfetto trace documents streamed by
 * appendPerfettoTrace()) are *serialized* on the worker that ran the
 * run and *written* after the batch in submission order, so file bytes
 * carry the same independence.
 *
 * Ownership: a SweepRunner owns its pool for its whole lifetime (pool
 * workers, run scratches and trace buffers are reused across runAll()
 * calls);
 * descriptors reference apps::App objects that must outlive runAll().
 */

#ifndef COMMGUARD_SIM_SWEEP_RUNNER_HH
#define COMMGUARD_SIM_SWEEP_RUNNER_HH

#include <atomic>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "sim/experiment.hh"

namespace commguard::sim
{

/**
 * Canonical sweep options for seed index @p seed_index (0-based): the
 * paper methodology's per-seed derivation shared by every bench.
 */
streamit::LoadOptions sweepOptions(protection::ProtectionMode mode,
                                   bool inject_errors, double mtbe,
                                   int seed_index,
                                   Count frame_scale = 1);

/**
 * Parallel fan-out of independent experiment runs.
 */
class SweepRunner
{
  public:
    /**
     * Whether this runner may consult the CG_CACHE_DIR result cache.
     * Off exists for callers whose point is to *execute* (timing
     * measurements in micro_sweep_throughput, determinism comparisons
     * in the fuzz harness): a replayed result would measure the cache,
     * not the machine.
     */
    enum class Caching
    {
        Auto,  //!< Use the process cache when CG_CACHE_DIR is set.
        Off,   //!< Never look up or store, cache or not.
    };

    /** @param jobs Pool width; 0 means ThreadPool::defaultJobs(). */
    explicit SweepRunner(unsigned jobs = 0,
                         Caching caching = Caching::Auto);

    /** Queue one run; returns its index in the outcome vector. */
    std::size_t enqueue(const apps::App &app,
                        const streamit::LoadOptions &options);
    std::size_t enqueue(RunDescriptor descriptor);

    /**
     * Execute every queued descriptor and return their outcomes in
     * submission order (clears the queue). Long sweeps print periodic
     * progress lines to stderr; quick ones stay silent.
     */
    std::vector<RunOutcome> runAll();

    /** Effective parallelism: the pool width. */
    unsigned jobs() const { return _pool.jobs(); }

    /**
     * Host-side scheduling counters of the pool (batches, stolen
     * indices, waits/wakeups). Engine diagnostics only — never part of
     * per-run snapshots, whose bytes must not depend on the job count.
     * See docs/METRICS.md, "pool/".
     */
    ThreadPool::Stats poolStats() const { return _pool.stats(); }

    /** Reset the scheduling counters (e.g. between bench phases). */
    void resetPoolStats() { _pool.resetStats(); }

    // ------------------------------------------------------------------
    // Progress (readable from any thread while runAll is executing).
    // ------------------------------------------------------------------

    /** Descriptors in the current/last runAll batch. */
    std::size_t total() const { return _total; }

    /** Runs finished so far in the current/last batch. */
    std::size_t completed() const
    {
        return _completed.load(std::memory_order_relaxed);
    }

    /**
     * Observer called after each completed run with (done, total,
     * descriptor, outcome) — the sweep health board's hook
     * (sim/telemetry_export.hh). Invoked under an internal mutex,
     * possibly from worker threads; it replaces the default stderr
     * progress printer. Install it before runAll(): the batch latches
     * its presence at its start. Cache hits report through it too
     * (from the submitting thread).
     */
    using OutcomeObserver = std::function<void(
        std::size_t, std::size_t, const RunDescriptor &,
        const RunOutcome &)>;
    void setOutcomeObserver(OutcomeObserver observer)
    {
        _outcomeObserver = std::move(observer);
    }

  private:
    void finishRun(const RunDescriptor &descriptor,
                   const RunOutcome &outcome);
    void reportProgress(std::size_t done);

    ThreadPool _pool;

    /**
     * One reusable RunScratch per pool job slot, indexed by the batch
     * worker id (slot 0 doubles as the inline-path scratch). Lives as
     * long as the runner so recycled buffers survive across batches.
     */
    std::vector<RunScratch> _scratches;

    /**
     * The last traced batch's trace documents, cleared after their
     * files are written. The next traced batch streams its documents
     * into them, so a traced sweep does not fault in fresh pages for
     * every trace; an untraced batch frees them.
     */
    std::vector<std::string> _traceBuffers;

    Caching _caching = Caching::Auto;
    std::vector<RunDescriptor> _queued;

    std::size_t _total = 0;
    std::atomic<std::size_t> _completed{0};
    OutcomeObserver _outcomeObserver;
    bool _useOutcomeObserver = false;  //!< Latched per batch.

    std::mutex _progressMutex;       //!< Serializes actual printing.
    double _startSeconds = 0.0;      //!< Monotonic batch start.

    /**
     * Next time the default reporter may print. Checked with one
     * relaxed load on every completion — the mutex above is only taken
     * when a print is actually due, so finishing a run costs no lock.
     */
    std::atomic<double> _nextPrintSeconds{0.0};
};

/**
 * Process-wide runner shared by qualitySweep() and the bench helpers,
 * reused for every sweep. Only for use from the main thread.
 *
 * The pool width is pinned when the first caller constructs the
 * runner; changing CG_JOBS later in the process (e.g. setenv() from
 * test code) does NOT re-size it. A mismatch between the pinned width
 * and the current CG_JOBS is reported once via warn() so a silently
 * ignored setting is at least visible. Construct a private
 * SweepRunner(jobs) when a specific width is required.
 */
SweepRunner &sharedRunner();

} // namespace commguard::sim

#endif // COMMGUARD_SIM_SWEEP_RUNNER_HH
