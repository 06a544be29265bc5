/**
 * @file
 * A small reusable fixed-size thread pool for embarrassingly parallel
 * host-side work (the experiment engine's sweep fan-out).
 *
 * Design constraints, in order:
 *  - determinism of the *simulation* must not depend on the pool: jobs
 *    carry their own seeded RNG state and never share mutable
 *    simulation objects, so scheduling order only affects wall-clock;
 *  - a pool of size <= 1 executes jobs inline on the submitting thread
 *    (no worker threads are ever spawned), so `CG_JOBS=1` restores the
 *    exact sequential execution environment, stack traces included;
 *  - the pool owns its worker threads and joins them in the
 *    destructor; jobs must not outlive the pool.
 *
 * Work is submitted as batches (submitBatch()): the batch installs one
 * shared body and a single atomic index counter; workers *claim*
 * indices with a lock-free fetch_add and never touch the pool mutex
 * between indices. One notify_all wakes the pool per batch — no
 * per-job heap-allocated std::function, no per-job lock, no
 * thundering herd. See DESIGN.md "Sweep scaling".
 */

#ifndef COMMGUARD_COMMON_THREAD_POOL_HH
#define COMMGUARD_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hh"

namespace commguard
{

/**
 * Fixed-size thread pool running lock-free index batches.
 */
class ThreadPool
{
  public:
    /**
     * One batch job: invoked once per index in [0, count) with the
     * claiming worker's slot id in [0, jobs()) — stable per worker
     * thread (0 on the inline path), so callers can key per-worker
     * scratch state off it.
     */
    using BatchBody = std::function<void(unsigned worker,
                                         std::size_t index)>;

    /**
     * Host-side scheduling counters (see docs/METRICS.md, "pool/").
     * Monotonic over the pool's lifetime; read via stats(). These are
     * engine diagnostics — they depend on host scheduling and job
     * count, so they are *never* folded into per-run MetricSnapshots
     * (whose bytes must be independent of CG_JOBS).
     */
    struct Stats
    {
        Count batchesSubmitted = 0;  //!< submitBatch() calls.
        Count tasksStolen = 0;   //!< Batch indices claimed by workers.
        Count queueWaits = 0;    //!< Times a worker blocked for work.
        Count idleWakeups = 0;   //!< Wakeups that found nothing to do.
    };

    /**
     * Create a pool with @p threads workers. With @p threads <= 1 no
     * worker threads are spawned and batches run inline.
     */
    explicit ThreadPool(unsigned threads);

    /** Waits out an open batch, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Run @p body for every index in [0, count) across the pool and
     * block until all indices completed. Workers claim indices from a
     * single atomic counter; the submitting thread sleeps (it is not a
     * worker), so effective parallelism is exactly jobs(). On a
     * sequential pool the indices run inline, in order, on the calling
     * thread with worker id 0.
     *
     * A throwing index never aborts the batch: the first exception is
     * captured — identically for the inline and the worker path —
     * every other index still runs, and wait() rethrows. Only one
     * batch can be active at a time (enforced internally).
     */
    void submitBatch(std::size_t count, const BatchBody &body);

    /**
     * Block until the open batch (if any) has finished. If any index
     * threw, rethrows the first captured exception (subsequent
     * exceptions of the same batch are dropped); the pool stays usable
     * afterwards.
     */
    void wait();

    /** Worker threads backing the pool (0 means inline execution). */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(_workers.size());
    }

    /**
     * Job-slot count the pool was created with (>= 1); the effective
     * parallelism of a sweep run through this pool.
     */
    unsigned jobs() const { return _jobs; }

    /** Snapshot of the scheduling counters (any thread, racy-fresh). */
    Stats stats() const;

    /** Reset the scheduling counters to zero. */
    void resetStats();

    /**
     * Default pool width: the CG_JOBS environment variable when set to
     * a positive integer, otherwise std::thread::hardware_concurrency()
     * (minimum 1).
     */
    static unsigned defaultJobs();

  private:
    void workerLoop(unsigned worker);

    /**
     * Claim-and-run loop of one worker's share of the open batch.
     * Called WITHOUT the pool mutex; @p body/@p size were captured
     * under it and stay valid because submitBatch() cannot clear the
     * batch until _batchWorkersIn drops back to zero.
     */
    void runBatchShare(unsigned worker, const BatchBody &body,
                       std::size_t size);

    /** Batch indices still unclaimed? (call with _mutex held). */
    bool batchOpenLocked() const
    {
        return _batchBody != nullptr &&
               _batchNext.load(std::memory_order_relaxed) < _batchSize;
    }

    /** Capture the in-flight exception as the batch's first, if any. */
    void recordException();

    unsigned _jobs;
    std::vector<std::thread> _workers;

    std::mutex _mutex;
    std::condition_variable _workAvailable;
    std::condition_variable _allIdle;
    bool _stopping = false;
    std::exception_ptr _pendingException;  //!< First job failure.

    // ------------------------------------------------------------------
    // Batch state: installed/cleared by submitBatch() under _mutex;
    // claimed lock-free by workers through _batchNext.
    // ------------------------------------------------------------------
    const BatchBody *_batchBody = nullptr;  //!< Null: no open batch.
    std::size_t _batchSize = 0;
    unsigned _batchWorkersIn = 0;  //!< Workers inside runBatchShare().
    std::atomic<std::size_t> _batchNext{0};     //!< Next unclaimed index.
    std::atomic<std::size_t> _batchPending{0};  //!< Indices not yet done.

    // Scheduling counters (relaxed; diagnostics only).
    std::atomic<Count> _statBatches{0};
    std::atomic<Count> _statStolen{0};
    std::atomic<Count> _statQueueWaits{0};
    std::atomic<Count> _statIdleWakeups{0};
};

} // namespace commguard

#endif // COMMGUARD_COMMON_THREAD_POOL_HH
