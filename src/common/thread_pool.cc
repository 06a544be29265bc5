#include "common/thread_pool.hh"

#include <utility>

#include "common/env.hh"
#include "common/logging.hh"

namespace commguard
{

ThreadPool::ThreadPool(unsigned threads) : _jobs(threads < 1 ? 1 : threads)
{
    if (_jobs <= 1)
        return;
    _workers.reserve(_jobs);
    for (unsigned i = 0; i < _jobs; ++i)
        _workers.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(_mutex);
        _allIdle.wait(lock, [this] { return _batchBody == nullptr; });
        _stopping = true;
        if (_pendingException != nullptr) {
            // The destructor cannot rethrow; a job failure nobody
            // wait()ed for is still worth a diagnostic.
            _pendingException = nullptr;
            warn("thread_pool: discarding a job exception that was "
                 "never observed via wait()");
        }
    }
    _workAvailable.notify_all();
    for (std::thread &worker : _workers)
        worker.join();
}

void
ThreadPool::submitBatch(std::size_t count, const BatchBody &body)
{
    _statBatches.fetch_add(1, std::memory_order_relaxed);
    if (count == 0)
        return;

    if (_workers.empty()) {
        // Sequential pool: indices run inline, in submission order —
        // the exact CG_JOBS=1 environment, stack traces included.
        for (std::size_t i = 0; i < count; ++i) {
            try {
                body(0, i);
            } catch (...) {
                recordException();
            }
        }
        return;
    }

    {
        std::unique_lock<std::mutex> lock(_mutex);
        // One batch at a time (callers are single-threaded over the
        // pool, but a stale batch must never alias a new one).
        _allIdle.wait(lock, [this] { return _batchBody == nullptr; });
        _batchBody = &body;
        _batchSize = count;
        _batchNext.store(0, std::memory_order_relaxed);
        _batchPending.store(count, std::memory_order_relaxed);
    }
    // Exactly one wakeup for the whole batch: every worker claims
    // indices until the counter runs dry.
    _workAvailable.notify_all();

    std::unique_lock<std::mutex> lock(_mutex);
    _allIdle.wait(lock, [this] {
        return _batchPending.load(std::memory_order_acquire) == 0 &&
               _batchWorkersIn == 0;
    });
    // Safe to clear: every index completed and no worker still holds
    // a reference to the body (workers re-lock before leaving).
    _batchBody = nullptr;
    _batchSize = 0;
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(_mutex);
    _allIdle.wait(lock, [this] { return _batchBody == nullptr; });
    if (_pendingException != nullptr) {
        std::exception_ptr pending =
            std::exchange(_pendingException, nullptr);
        lock.unlock();
        std::rethrow_exception(pending);
    }
}

void
ThreadPool::workerLoop(unsigned worker)
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        bool waited = false;
        while (!_stopping && !batchOpenLocked()) {
            if (!waited) {
                waited = true;
                _statQueueWaits.fetch_add(1,
                                          std::memory_order_relaxed);
            } else {
                // Woken with nothing to do: either a spurious wakeup
                // or another worker drained the work first.
                _statIdleWakeups.fetch_add(1,
                                           std::memory_order_relaxed);
            }
            _workAvailable.wait(lock);
        }

        if (batchOpenLocked()) {
            // Capture the batch under the mutex; submitBatch() cannot
            // clear it while _batchWorkersIn > 0.
            const BatchBody *body = _batchBody;
            const std::size_t size = _batchSize;
            ++_batchWorkersIn;
            lock.unlock();
            runBatchShare(worker, *body, size);
            lock.lock();
            --_batchWorkersIn;
            if (_batchWorkersIn == 0 &&
                _batchPending.load(std::memory_order_acquire) == 0) {
                _allIdle.notify_all();
            }
            continue;
        }

        return;  // Stopping with nothing left to run.
    }
}

void
ThreadPool::runBatchShare(unsigned worker, const BatchBody &body,
                          std::size_t size)
{
    for (;;) {
        // The claim is the whole synchronization cost of one index:
        // no mutex, no condvar, no allocation. Overshoot past `size`
        // is harmless (each worker overshoots at most once).
        const std::size_t index =
            _batchNext.fetch_add(1, std::memory_order_relaxed);
        if (index >= size)
            return;
        _statStolen.fetch_add(1, std::memory_order_relaxed);
        try {
            body(worker, index);
        } catch (...) {
            recordException();
        }
        // Release so the submitter's acquire-load of 0 pending sees
        // every effect of the batch bodies.
        _batchPending.fetch_sub(1, std::memory_order_release);
    }
}

void
ThreadPool::recordException()
{
    std::lock_guard<std::mutex> lock(_mutex);
    if (_pendingException == nullptr)
        _pendingException = std::current_exception();
}

ThreadPool::Stats
ThreadPool::stats() const
{
    Stats stats;
    stats.batchesSubmitted =
        _statBatches.load(std::memory_order_relaxed);
    stats.tasksStolen = _statStolen.load(std::memory_order_relaxed);
    stats.queueWaits = _statQueueWaits.load(std::memory_order_relaxed);
    stats.idleWakeups =
        _statIdleWakeups.load(std::memory_order_relaxed);
    return stats;
}

void
ThreadPool::resetStats()
{
    _statBatches.store(0, std::memory_order_relaxed);
    _statStolen.store(0, std::memory_order_relaxed);
    _statQueueWaits.store(0, std::memory_order_relaxed);
    _statIdleWakeups.store(0, std::memory_order_relaxed);
}

unsigned
ThreadPool::defaultJobs()
{
    const long parsed = envLong("CG_JOBS", 0);
    if (parsed >= 1)
        return static_cast<unsigned>(parsed);
    const unsigned hw = std::thread::hardware_concurrency();
    return hw < 1 ? 1 : hw;
}

} // namespace commguard
