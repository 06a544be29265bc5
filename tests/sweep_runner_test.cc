/**
 * @file
 * Tests for the parallel experiment engine and the interpreter's
 * error-countdown fast path:
 *  - a multi-threaded SweepRunner sweep is bitwise identical to the
 *    sequential path (the determinism guarantee every figure relies
 *    on),
 *  - the integer countdown resync reproduces the exact flip schedule
 *    of stepping ErrorInjector::advance(1, ...) per commit (the
 *    pre-refactor hot path),
 *  - the thread pool and progress counters behave.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "apps/app.hh"
#include "common/recycle_pool.hh"
#include "common/thread_pool.hh"
#include "machine/error_injector.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"

namespace commguard::sim
{
namespace
{

// ----------------------------------------------------------------------
// ThreadPool: pool width, inline execution and wait() exception
// semantics, driven through one-index batches (the pool's only unit of
// work).
// ----------------------------------------------------------------------

TEST(ThreadPool, SequentialPoolRunsInline)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 0u);
    EXPECT_EQ(pool.jobs(), 1u);

    const std::thread::id caller = std::this_thread::get_id();
    int runs = 0;
    pool.submitBatch(1, [&](unsigned, std::size_t) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
        ++runs;
    });
    EXPECT_EQ(runs, 1);  // Ran before submitBatch returned.
    pool.wait();
    EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, ParallelPoolRunsEveryJob)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);

    const std::thread::id caller = std::this_thread::get_id();
    std::atomic<int> runs{0};
    std::atomic<int> on_caller{0};
    for (int i = 0; i < 64; ++i) {
        pool.submitBatch(1, [&](unsigned, std::size_t) {
            if (std::this_thread::get_id() == caller)
                on_caller.fetch_add(1);
            runs.fetch_add(1);
        });
    }
    pool.wait();
    EXPECT_EQ(runs.load(), 64);
    EXPECT_EQ(on_caller.load(), 0);  // The submitter is not a worker.

    // The pool is reusable after wait().
    for (int i = 0; i < 8; ++i)
        pool.submitBatch(1, [&](unsigned, std::size_t) {
            runs.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(runs.load(), 72);
}

TEST(ThreadPool, InlineJobExceptionRethrownFromWait)
{
    ThreadPool pool(1);
    pool.submitBatch(1, [](unsigned, std::size_t) {
        throw std::runtime_error("inline boom");
    });
    EXPECT_THROW(pool.wait(), std::runtime_error);

    // The pool survives and keeps running jobs after the rethrow.
    int runs = 0;
    pool.submitBatch(1, [&runs](unsigned, std::size_t) { ++runs; });
    pool.wait();
    EXPECT_EQ(runs, 1);
}

TEST(ThreadPool, WorkerJobExceptionRethrownFromWait)
{
    ThreadPool pool(4);
    std::atomic<int> runs{0};
    for (int i = 0; i < 32; ++i) {
        pool.submitBatch(1, [&runs, i](unsigned, std::size_t) {
            if (i == 7)
                throw std::runtime_error("worker boom");
            runs.fetch_add(1);
        });
    }
    // A throwing job must neither terminate the process nor hang the
    // pool: every later job still runs, and wait() reports the error.
    try {
        pool.wait();
        FAIL() << "wait() should have rethrown the job exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "worker boom");
    }
    EXPECT_EQ(runs.load(), 31);

    // The pool stays usable after the rethrow.
    for (int i = 0; i < 8; ++i)
        pool.submitBatch(1, [&runs](unsigned, std::size_t) {
            runs.fetch_add(1);
        });
    pool.wait();
    EXPECT_EQ(runs.load(), 39);
}

TEST(ThreadPool, FirstOfSeveralExceptionsWins)
{
    ThreadPool pool(2);
    for (int i = 0; i < 4; ++i) {
        pool.submitBatch(1, [i](unsigned, std::size_t) {
            throw std::runtime_error("boom " + std::to_string(i));
        });
    }
    try {
        pool.wait();
        FAIL() << "wait() should have rethrown the first job exception";
    } catch (const std::runtime_error &e) {
        EXPECT_STREQ(e.what(), "boom 0");
    }
    // Later exceptions were discarded; a clean wait follows.
    pool.wait();
}

// ----------------------------------------------------------------------
// ThreadPool batch path (the sweep hot path).
// ----------------------------------------------------------------------

TEST(ThreadPoolBatch, InlineBatchRunsEveryIndexInOrder)
{
    ThreadPool pool(1);
    std::vector<std::size_t> order;
    pool.submitBatch(16, [&](unsigned worker, std::size_t index) {
        EXPECT_EQ(worker, 0u);  // Inline path is worker slot 0.
        order.push_back(index);
    });
    pool.wait();
    ASSERT_EQ(order.size(), 16u);
    for (std::size_t i = 0; i < order.size(); ++i)
        EXPECT_EQ(order[i], i);  // Sequential pool: submission order.
}

TEST(ThreadPoolBatch, ParallelBatchRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    constexpr std::size_t count = 256;
    std::vector<std::atomic<int>> hits(count);
    std::vector<std::atomic<int>> worker_seen(4);
    pool.submitBatch(count, [&](unsigned worker, std::size_t index) {
        ASSERT_LT(worker, 4u);
        ASSERT_LT(index, count);
        worker_seen[worker].fetch_add(1);
        hits[index].fetch_add(1);
    });
    pool.wait();
    for (std::size_t i = 0; i < count; ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;

    // The pool is reusable: back-to-back batches work.
    std::atomic<int> runs{0};
    pool.submitBatch(32, [&](unsigned, std::size_t) {
        runs.fetch_add(1);
    });
    pool.wait();
    EXPECT_EQ(runs.load(), 32);
}

TEST(ThreadPoolBatch, EmptyBatchIsANoOp)
{
    ThreadPool pool(4);
    pool.submitBatch(0, [](unsigned, std::size_t) {
        FAIL() << "empty batch must never invoke the body";
    });
    pool.wait();
}

TEST(ThreadPoolBatch, ThrowingIndexDoesNotAbortTheBatch)
{
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs=" + std::to_string(jobs));
        ThreadPool pool(jobs);
        std::atomic<int> runs{0};
        pool.submitBatch(64, [&](unsigned, std::size_t index) {
            if (index == 9)
                throw std::runtime_error("batch boom");
            runs.fetch_add(1);
        });
        // Every other index still ran; wait() reports the failure.
        try {
            pool.wait();
            FAIL() << "wait() should have rethrown the batch exception";
        } catch (const std::runtime_error &e) {
            EXPECT_STREQ(e.what(), "batch boom");
        }
        EXPECT_EQ(runs.load(), 63);

        // The pool survives: a clean batch follows.
        pool.submitBatch(8, [&](unsigned, std::size_t) {
            runs.fetch_add(1);
        });
        pool.wait();
        EXPECT_EQ(runs.load(), 71);
    }
}

TEST(ThreadPoolBatch, StatsCountBatchesAndStolenIndices)
{
    ThreadPool pool(4);
    pool.resetStats();
    pool.submitBatch(100, [](unsigned, std::size_t) {});
    pool.submitBatch(28, [](unsigned, std::size_t) {});
    pool.wait();

    const ThreadPool::Stats stats = pool.stats();
    EXPECT_EQ(stats.batchesSubmitted, 2u);
    EXPECT_EQ(stats.tasksStolen, 128u);  // Every index claimed once.

    pool.resetStats();
    EXPECT_EQ(pool.stats().batchesSubmitted, 0u);
    EXPECT_EQ(pool.stats().tasksStolen, 0u);
}

// ----------------------------------------------------------------------
// RecyclePool: the per-worker buffer freelist under the loader.
// ----------------------------------------------------------------------

TEST(RecyclePool, RecycledBufferIsRezeroedAndKeepsCapacity)
{
    RecyclePool<Word> pool;
    std::vector<Word> buffer = pool.acquire(64);
    ASSERT_EQ(buffer.size(), 64u);
    for (Word &word : buffer)
        word = 0xdeadbeef;
    const Word *data = buffer.data();
    pool.release(std::move(buffer));
    EXPECT_EQ(pool.retained(), 1u);

    // Reacquisition reuses the storage but must be indistinguishable
    // from a fresh zero-filled allocation (determinism contract).
    std::vector<Word> again = pool.acquire(32);
    EXPECT_EQ(again.data(), data);
    ASSERT_EQ(again.size(), 32u);
    for (const Word word : again)
        EXPECT_EQ(word, 0u);
    EXPECT_EQ(pool.retained(), 0u);
}

TEST(RecyclePool, AcquireZeroHandsBackRoomyEmptyBuffer)
{
    RecyclePool<Word> pool;
    std::vector<Word> buffer = pool.acquire(128);
    pool.release(std::move(buffer));

    std::vector<Word> staged = pool.acquire(0);
    EXPECT_TRUE(staged.empty());
    EXPECT_GE(staged.capacity(), 128u);
}

// ----------------------------------------------------------------------
// Injector countdown fast path.
// ----------------------------------------------------------------------

/**
 * Reference: the pre-refactor per-commit path — advance(1) on every
 * commit. The callback consumes RNG draws exactly like
 * Core::flipRandomRegisterBit (target register + bit), which matters
 * because the error process and the flip targets share one RNG.
 */
std::vector<Count>
scheduleByStepping(ErrorInjector &injector, Count commits)
{
    std::vector<Count> fires;
    for (Count i = 1; i <= commits; ++i) {
        injector.advance(1, [&] {
            injector.rng().below(31);
            injector.rng().below(32);
            fires.push_back(i);
        });
    }
    return fires;
}

/** The Core fast path: batch-decrement an integer, resync at zero. */
std::vector<Count>
scheduleByCountdown(ErrorInjector &injector, Count commits)
{
    std::vector<Count> fires;
    Count reload = injector.countdown();
    Count countdown = reload;
    for (Count i = 1; i <= commits; ++i) {
        if (--countdown == 0) {
            injector.advance(reload, [&] {
                injector.rng().below(31);
                injector.rng().below(32);
                fires.push_back(i);
            });
            reload = countdown = injector.countdown();
        }
    }
    return fires;
}

TEST(ErrorCountdown, MatchesSteppedAdvanceSchedule)
{
    for (const double mtbe : {2.0, 17.5, 1000.0}) {
        for (const std::uint64_t seed : {1ull, 42ull, 987654321ull}) {
            ErrorInjector::Config config;
            config.enabled = true;
            config.mtbe = mtbe;
            config.seed = seed;

            ErrorInjector stepped;
            stepped.configure(config);
            ErrorInjector fast;
            fast.configure(config);

            const Count commits = 20'000;
            const std::vector<Count> ref =
                scheduleByStepping(stepped, commits);
            const std::vector<Count> got =
                scheduleByCountdown(fast, commits);

            ASSERT_FALSE(ref.empty());
            EXPECT_EQ(ref, got) << "mtbe=" << mtbe << " seed=" << seed;
            EXPECT_EQ(stepped.errorsInjected(), fast.errorsInjected());
        }
    }
}

TEST(ErrorCountdown, DisabledInjectorNeverSchedules)
{
    ErrorInjector injector;
    EXPECT_EQ(injector.countdown(), ErrorInjector::noErrorScheduled);
}

TEST(ErrorCountdown, NeverZeroWhileEnabled)
{
    ErrorInjector::Config config;
    config.enabled = true;
    config.mtbe = 1.0;  // Sub-instruction inter-arrival draws.
    config.seed = 7;
    ErrorInjector injector;
    injector.configure(config);
    for (int i = 0; i < 1000; ++i) {
        const Count countdown = injector.countdown();
        ASSERT_GE(countdown, 1u);
        injector.advance(countdown, [] {});
    }
}

// ----------------------------------------------------------------------
// SweepRunner determinism.
// ----------------------------------------------------------------------

/** The full cross-mode descriptor set of a small fig-style sweep. */
std::vector<RunDescriptor>
smallSweep(const apps::App &app)
{
    std::vector<RunDescriptor> descriptors;
    for (const protection::ProtectionMode mode :
         {protection::ProtectionMode::Raw,
          protection::ProtectionMode::ReliableQueue,
          protection::ProtectionMode::CommGuard}) {
        for (const double mtbe : {64'000.0, 1'024'000.0}) {
            for (int seed = 0; seed < 2; ++seed) {
                descriptors.push_back(
                    {&app, sweepOptions(mode, true, mtbe, seed)});
            }
        }
    }
    return descriptors;
}

void
expectBitwiseEqual(const RunOutcome &a, const RunOutcome &b)
{
    // Quality compared as bits: NaN-safe and rounding-strict.
    EXPECT_EQ(std::memcmp(&a.qualityDb, &b.qualityDb, sizeof(double)),
              0);
    EXPECT_EQ(a.completed, b.completed);
    // The full metric snapshot covers every counter the figures read.
    EXPECT_TRUE(a.snapshot == b.snapshot);
    EXPECT_EQ(a.output, b.output);
}

TEST(SweepRunner, ParallelSweepIsBitwiseIdenticalToSequential)
{
    const apps::App app = apps::makeFftApp(16);
    const std::vector<RunDescriptor> descriptors = smallSweep(app);

    SweepRunner sequential(1);
    EXPECT_EQ(sequential.jobs(), 1u);
    for (const RunDescriptor &descriptor : descriptors)
        sequential.enqueue(descriptor);
    const std::vector<RunOutcome> base = sequential.runAll();

    SweepRunner parallel(4);
    EXPECT_EQ(parallel.jobs(), 4u);
    for (const RunDescriptor &descriptor : descriptors)
        parallel.enqueue(descriptor);
    const std::vector<RunOutcome> threaded = parallel.runAll();

    ASSERT_EQ(base.size(), descriptors.size());
    ASSERT_EQ(threaded.size(), descriptors.size());
    bool any_errors = false;
    for (std::size_t i = 0; i < base.size(); ++i) {
        SCOPED_TRACE("descriptor " + std::to_string(i));
        expectBitwiseEqual(base[i], threaded[i]);
        any_errors = any_errors || base[i].errorsInjected() > 0;
    }
    EXPECT_TRUE(any_errors);  // The sweep actually injected.
}

TEST(SweepRunner, JobCountsOneTwoEightAgreeBitwiseAndBytewise)
{
    // The determinism contract, stated at full strength: the same
    // batch under jobs=1, 2 and 8 yields bitwise-identical outcomes
    // AND byte-identical JSONL export records.
    const apps::App app = apps::makeFftApp(16);
    const std::vector<RunDescriptor> descriptors = smallSweep(app);

    std::vector<std::vector<RunOutcome>> outcomes;
    for (const unsigned jobs : {1u, 2u, 8u}) {
        SweepRunner runner(jobs);
        for (const RunDescriptor &descriptor : descriptors)
            runner.enqueue(descriptor);
        outcomes.push_back(runner.runAll());
        ASSERT_EQ(outcomes.back().size(), descriptors.size());
    }

    for (std::size_t i = 0; i < descriptors.size(); ++i) {
        SCOPED_TRACE("descriptor " + std::to_string(i));
        const std::string record =
            runRecordJson(descriptors[i], outcomes[0][i]).dump();
        for (std::size_t j = 1; j < outcomes.size(); ++j) {
            expectBitwiseEqual(outcomes[0][i], outcomes[j][i]);
            EXPECT_EQ(record,
                      runRecordJson(descriptors[i], outcomes[j][i])
                          .dump());
        }
    }
}

TEST(SweepRunner, RepeatedParallelRunsAreStable)
{
    // Re-running the same descriptors through the same runner must
    // reproduce the outcomes: per-run seeding leaves no state behind.
    const apps::App app = apps::makeFftApp(16);
    SweepRunner runner(4);

    runner.enqueue(app,
                   sweepOptions(protection::ProtectionMode::CommGuard,
                                true, 64'000.0, 0));
    const std::vector<RunOutcome> first = runner.runAll();

    runner.enqueue(app,
                   sweepOptions(protection::ProtectionMode::CommGuard,
                                true, 64'000.0, 0));
    const std::vector<RunOutcome> second = runner.runAll();

    ASSERT_EQ(first.size(), 1u);
    ASSERT_EQ(second.size(), 1u);
    expectBitwiseEqual(first[0], second[0]);
}

TEST(SweepRunner, ProgressCounterReachesTotal)
{
    const apps::App app = apps::makeFftApp(16);
    SweepRunner runner(2);

    std::atomic<std::size_t> reports{0};
    std::atomic<std::size_t> last_done{0};
    runner.setProgress([&](std::size_t done, std::size_t total) {
        reports.fetch_add(1);
        EXPECT_LE(done, total);
        EXPECT_EQ(total, 3u);
        // Reports may interleave across workers; track the maximum.
        if (done > last_done.load())
            last_done.store(done);
    });

    for (int seed = 0; seed < 3; ++seed)
        runner.enqueue(app,
                       sweepOptions(protection::ProtectionMode::CommGuard,
                                    true, 512'000.0, seed));
    const std::vector<RunOutcome> outcomes = runner.runAll();

    EXPECT_EQ(outcomes.size(), 3u);
    EXPECT_EQ(runner.total(), 3u);
    EXPECT_EQ(runner.completed(), 3u);
    EXPECT_EQ(reports.load(), 3u);
    EXPECT_EQ(last_done.load(), 3u);
}

TEST(SweepOptions, MatchPaperSeedDerivation)
{
    const streamit::LoadOptions options = sweepOptions(
        protection::ProtectionMode::ReliableQueue, true, 128'000.0, 2, 4);
    EXPECT_EQ(options.mode, protection::ProtectionMode::ReliableQueue);
    EXPECT_TRUE(options.injectErrors);
    EXPECT_EQ(options.mtbe, 128'000.0);
    EXPECT_EQ(options.seed, 3u * 1000003u);
    EXPECT_EQ(options.frameScale, 4u);
}

} // namespace
} // namespace commguard::sim
