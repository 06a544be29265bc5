#include "sim/sweep_runner.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>

#include "common/logging.hh"
#include "sim/env_options.hh"
#include "sim/result_cache.hh"
#include "sim/run_export.hh"
#include "sim/telemetry_export.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{

namespace
{

double
monotonicSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

/** Silence threshold before the default printer starts reporting. */
constexpr double progressQuietSeconds = 2.0;

} // namespace

streamit::LoadOptions
sweepOptions(protection::ProtectionMode mode, bool inject_errors,
             double mtbe, int seed_index, Count frame_scale)
{
    streamit::LoadOptions options;
    options.mode = mode;
    options.injectErrors = inject_errors;
    options.mtbe = mtbe;
    options.seed =
        static_cast<std::uint64_t>(seed_index + 1) * 1000003;
    options.frameScale = frame_scale;
    return options;
}

SweepRunner::SweepRunner(unsigned jobs, Caching caching)
    : _pool(jobs == 0 ? ThreadPool::defaultJobs() : jobs),
      _scratches(_pool.jobs()), _caching(caching)
{
}

std::size_t
SweepRunner::enqueue(const apps::App &app,
                     const streamit::LoadOptions &options)
{
    return enqueue(RunDescriptor{&app, options});
}

std::size_t
SweepRunner::enqueue(RunDescriptor descriptor)
{
    _queued.push_back(std::move(descriptor));
    return _queued.size() - 1;
}

std::vector<RunOutcome>
SweepRunner::runAll()
{
    std::vector<RunDescriptor> batch;
    batch.swap(_queued);

    _total = batch.size();
    _completed.store(0, std::memory_order_relaxed);
    _startSeconds = monotonicSeconds();
    _nextPrintSeconds.store(_startSeconds + progressQuietSeconds,
                            std::memory_order_relaxed);
    _useOutcomeObserver = static_cast<bool>(_outcomeObserver);

    const EnvOptions &env = EnvOptions::get();
    const bool want_jsonl = !env.jsonlPath.empty();
    const bool want_traces = env.traceEvents;
    const bool want_telemetry =
        env.telemetrySlices > 0 && !env.telemetryOut.empty();

    // Cached entries carry no trace or telemetry artifacts, so any
    // env-level observability request disables the cache for the
    // whole batch (runOnce() applies those knobs to every run).
    ResultCache *cache =
        (_caching == Caching::Auto && !env.traceEvents &&
         env.telemetrySlices == 0)
            ? ResultCache::process()
            : nullptr;

    const bool want_records = want_jsonl || cache != nullptr;

    // Stream-wide run index base, taken on the submitting thread:
    // batch composition never depends on the job count, so run_index
    // assignment (and with it the stream's bytes) stays deterministic.
    static std::atomic<Count> telemetry_run_serial{0};
    const Count telemetry_base =
        want_telemetry ? telemetry_run_serial.fetch_add(
                             batch.size(), std::memory_order_relaxed)
                       : 0;

    // Cache replay pass: hits fill their submission-order slot
    // directly (the stored recordLine is the very dump() a fresh run
    // would produce, so downstream bytes cannot tell the difference);
    // misses are left pending for the pool.
    std::vector<ExecutedRun> runs(batch.size());
    std::vector<std::size_t> pending;
    pending.reserve(batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        if (cache != nullptr && runCacheable(batch[i]) &&
            cache->lookup(batch[i], &runs[i]))
            finishRun(batch[i], runs[i].outcome);
        else
            pending.push_back(i);
    }

    // One scratch per pool job slot, reused batch over batch (the
    // freelists inside keep the big per-run buffers warm). beginBatch
    // drops caches keyed by graph addresses that may have been reused
    // since the last batch.
    for (RunScratch &scratch : _scratches)
        scratch.beginBatch();
    // Traced runs stream their documents into the last traced batch's
    // buffers (_traceBuffers).
    if (!want_traces)
        _traceBuffers = {};
    for (std::size_t p = 0; p < pending.size() && !_traceBuffers.empty();
         ++p) {
        runs[pending[p]].traceDoc = std::move(_traceBuffers.back());
        _traceBuffers.pop_back();
    }

    // Pending runs execute in place: runs[i] depends only on
    // batch[i], never on which worker or scratch served it. Telemetry
    // chunks are numbered by submission index (telemetry-on batches
    // never consult the cache, so every index is pending).
    _pool.submitBatch(
        pending.size(), [&](unsigned worker, std::size_t p) {
            const std::size_t i = pending[p];
            const RunDescriptor &descriptor = batch[i];
            ExecutedRun &run = runs[i];
            run.outcome = runOnce(*descriptor.app, descriptor.options,
                                  &_scratches[worker]);
            if (want_records)
                run.recordLine =
                    runRecordJson(descriptor, run.outcome).dump();
            if (want_traces && run.outcome.eventTrace != nullptr)
                appendPerfettoTrace(run.traceDoc,
                                    *run.outcome.eventTrace);
            if (want_telemetry)
                run.telemetryChunk = telemetryLines(
                    descriptor, run.outcome, telemetry_base + i);
            finishRun(descriptor, run.outcome);
        });
    _pool.wait();  // Rethrows the batch's first exception, if any.

    if (cache != nullptr) {
        for (std::size_t i : pending)
            if (runCacheable(batch[i]))
                cache->store(batch[i], runs[i]);
    }

    // Results move out of their slots before the artifact writes so
    // the telemetry report sees the final outcome vector.
    std::vector<RunOutcome> outcomes;
    outcomes.reserve(runs.size());
    for (ExecutedRun &run : runs)
        outcomes.push_back(std::move(run.outcome));

    // Per-run JSONL export (CG_JSONL=<path>): concatenated in
    // submission order, so file content is independent of the
    // backend, its job count, and the cache hit pattern.
    if (want_jsonl && !batch.empty()) {
        std::vector<std::string> jsonl_lines;
        jsonl_lines.reserve(runs.size());
        for (ExecutedRun &run : runs)
            jsonl_lines.push_back(std::move(run.recordLine));
        appendJsonl(env.jsonlPath, jsonl_lines);
    }

    // Telemetry stream (CG_TELEMETRY_OUT=<path>): each chunk is one
    // run's newline-joined sample records, concatenated in submission
    // order — bytes independent of CG_JOBS, like the run JSONL. The
    // HTML report next to it is rewritten after every batch so it is
    // live mid-sweep (host-side content, so jobs-dependent).
    if (want_telemetry && !batch.empty()) {
        std::vector<std::string> telemetry_chunks;
        telemetry_chunks.reserve(runs.size());
        for (ExecutedRun &run : runs)
            telemetry_chunks.push_back(std::move(run.telemetryChunk));
        appendJsonl(env.telemetryOut, telemetry_chunks);
        telemetryReportAdd(batch, outcomes, _pool.stats(),
                           _pool.jobs(),
                           monotonicSeconds() - _startSeconds);
        writeTelemetryReport(env.telemetryOut + ".html");
    }

    // Per-run Perfetto trace files (CG_TRACE_EVENTS=1): also written
    // post-batch in submission order, with a process-wide sequence
    // number so successive batches never collide.
    if (want_traces && !batch.empty()) {
        static std::atomic<Count> trace_serial{0};
        std::error_code ec;
        std::filesystem::create_directories(env.traceOut, ec);
        if (ec) {
            warn("sweep_runner: cannot create trace directory '" +
                 env.traceOut + "': " + ec.message());
        } else {
            for (std::size_t i = 0; i < batch.size(); ++i) {
                if (runs[i].traceDoc.empty())
                    continue;
                const Count n = trace_serial.fetch_add(
                    1, std::memory_order_relaxed);
                const std::string path =
                    env.traceOut + "/trace_" + std::to_string(n) +
                    "_" + batch[i].app->name + "_" +
                    protection::protectionModeName(
                        batch[i].options.mode) +
                    "_seed" +
                    std::to_string(batch[i].options.seed) + ".json";
                writeTraceFile(path, runs[i].traceDoc);
            }
        }
        // Buffers a smaller batch left unused are freed here.
        _traceBuffers.clear();
        for (ExecutedRun &run : runs) {
            if (run.traceDoc.empty())
                continue;
            run.traceDoc.clear();
            _traceBuffers.push_back(std::move(run.traceDoc));
        }
    }
    return outcomes;
}

void
SweepRunner::finishRun(const RunDescriptor &descriptor,
                       const RunOutcome &outcome)
{
    const std::size_t done =
        _completed.fetch_add(1, std::memory_order_relaxed) + 1;
    if (_useOutcomeObserver) {
        std::lock_guard<std::mutex> lock(_progressMutex);
        _outcomeObserver(done, _total, descriptor, outcome);
    } else {
        reportProgress(done);
    }
}

void
SweepRunner::reportProgress(std::size_t done)
{
    // Default reporter: silent for quick sweeps, then a line roughly
    // every two seconds so long benches never look hung. Fast path is
    // one relaxed load + one clock read and NO mutex — the previous
    // version serialized every run completion on _progressMutex,
    // which showed up once runs got cheap and jobs high.
    const double now = monotonicSeconds();
    if (done != _total &&
        now < _nextPrintSeconds.load(std::memory_order_relaxed))
        return;
    if (now - _startSeconds < progressQuietSeconds)
        return;

    std::lock_guard<std::mutex> lock(_progressMutex);
    // Recheck under the lock: a racing worker may have just printed.
    if (done != _total &&
        now < _nextPrintSeconds.load(std::memory_order_relaxed))
        return;
    _nextPrintSeconds.store(now + progressQuietSeconds,
                            std::memory_order_relaxed);
    std::fprintf(stderr, "[sweep] %zu/%zu runs (%.0fs, %u jobs)\n",
                 done, _total, now - _startSeconds, _pool.jobs());
}

SweepRunner &
sharedRunner()
{
    // Deliberately never destroyed: fatal() inside a pool worker exits
    // the process mid-batch, and joining the pool from an exit-time
    // destructor would then wait on that very batch forever.
    static SweepRunner *const runner = new SweepRunner();

    // The pool width was pinned when the first caller constructed the
    // runner: a later CG_JOBS change (setenv from test or bench code)
    // silently does not apply, so surface the mismatch once.
    const unsigned wanted = ThreadPool::defaultJobs();
    if (wanted != runner->jobs()) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true)) {
            warn("sharedRunner: pool width pinned at " +
                 std::to_string(runner->jobs()) +
                 " jobs at first use; current CG_JOBS asks for " +
                 std::to_string(wanted) +
                 " — construct a private SweepRunner for that");
        }
    }
    return *runner;
}

} // namespace commguard::sim
