/**
 * @file
 * Consumers of the in-run telemetry series (docs/TELEMETRY.md):
 *
 *  - The telemetry JSONL stream (CG_TELEMETRY_OUT): one canonical-JSON
 *    record per sample, serialized on the worker that ran the run and
 *    appended by SweepRunner after the batch in submission order —
 *    like the per-run JSONL path, bytes are independent of CG_JOBS.
 *
 *  - The self-contained HTML run report, written next to the stream
 *    (<CG_TELEMETRY_OUT>.html): quality vs. injected-error-rate curves
 *    per protection mode, per-mode stage-profile stacked areas over
 *    simulated time, and a host pool-utilization strip. The report is
 *    a host-side artifact (it includes ThreadPool::Stats), so unlike
 *    the stream it is NOT byte-stable across job counts.
 *
 *  - The sweep health board: a rate-limited TTY status line over a
 *    running sweep (runs/sec, ETA, pool-stat deltas, per-mode repair
 *    rates), attachable to any SweepRunner; plus the small StatusLine
 *    primitive cg_fuzz reuses for its case loop.
 */

#ifndef COMMGUARD_SIM_TELEMETRY_EXPORT_HH
#define COMMGUARD_SIM_TELEMETRY_EXPORT_HH

#include <map>
#include <string>
#include <vector>

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "sim/schema_check.hh"
#include "sim/sweep_runner.hh"

namespace commguard::sim
{

/**
 * The telemetry records of one run, one per retained sample, in sample
 * order. Each record carries telemetry_schema_version, the identifying
 * descriptor fields (app, protection_mode, inject_errors, mtbe, seed,
 * frame_scale), @p run_index (the run's position in the stream), the
 * sample coordinates (sample, slice, cycles, final) and a sparse
 * "deltas" object of per-interval counter increments. The final record
 * additionally carries samples_taken, samples_dropped and the full
 * nonzero "cumulative" totals, which reconcile 1:1 with the run's
 * MetricSnapshot (conservation). Empty when the outcome has no
 * recorder.
 */
std::vector<Json> telemetryRecordsJson(const RunDescriptor &descriptor,
                                       const RunOutcome &outcome,
                                       Count run_index);

/**
 * telemetryRecordsJson() as newline-joined canonical-JSON lines (no
 * trailing newline): the sweep hot path's pre-serialized chunk for one
 * run. "" when the outcome has no recorder.
 */
std::string telemetryLines(const RunDescriptor &descriptor,
                           const RunOutcome &outcome, Count run_index);

/**
 * Check a telemetry stream's text: contiguous runs of consecutive
 * samples, each closed by one final record whose cumulative totals
 * equal the streamed delta sums when no sample was dropped.
 */
SchemaErrors checkTelemetryStream(const std::string &text);

/**
 * Fold one finished batch into the process-wide HTML report state
 * (thread-safe; SweepRunner calls it after each barrier).
 */
void telemetryReportAdd(const std::vector<RunDescriptor> &batch,
                        const std::vector<RunOutcome> &outcomes,
                        const ThreadPool::Stats &pool_stats,
                        unsigned jobs, double elapsed_seconds);

/**
 * Write the accumulated report state as a self-contained HTML document
 * (inline JSON + inline JS drawing SVG; no external assets) to
 * @p path. Rewritten after every batch so the report is live during a
 * sweep and complete at the end.
 */
void writeTelemetryReport(const std::string &path);

/**
 * The health board's "rate / ETA" fragment, e.g. "12.3/s  eta 40s".
 * Degenerate inputs — no completions yet, an implausibly small elapsed
 * window (instant cache replays), or a non-finite rate — render as
 * "--/s  eta --" instead of inf/garbage. Exposed for tests.
 */
std::string formatRateEta(std::size_t done, std::size_t total,
                          double elapsed_seconds);

/**
 * Rate-limited single-line TTY status: update() rewrites one \r line
 * on stderr at most every quarter second; finish() commits the last
 * text with a newline. All output is suppressed when constructed
 * disabled, so callers can drive it unconditionally.
 *
 * While a line is showing, the StatusLine registers itself with the
 * logging pre-emit hook: a warn()/inform() emitted concurrently first
 * blanks the in-place line so the log message lands on its own clean
 * row, and the status text repaints on the next update() instead of
 * being spliced mid-line.
 */
class StatusLine
{
  public:
    explicit StatusLine(bool enabled) : _enabled(enabled) {}
    ~StatusLine();

    StatusLine(const StatusLine &) = delete;
    StatusLine &operator=(const StatusLine &) = delete;

    void update(const std::string &text);
    void finish(const std::string &text);

    bool enabled() const { return _enabled; }

    /**
     * Blank the currently showing status line, if any (the logging
     * pre-emit hook body; also callable from tests). The owner's next
     * update() repaints immediately.
     */
    static void clearActiveLine();

  private:
    bool _enabled;
    bool _dirty = false;       //!< An uncommitted \r line is showing.
    double _nextPrint = 0.0;
    std::size_t _lastWidth = 0;
};

/**
 * The sweep health board: attach() replaces a SweepRunner's default
 * progress printer with a live status line aggregating runs/sec, ETA,
 * ThreadPool::Stats deltas since the batch started, and per-mode
 * repair rates (protection::repairTotal() per run). The board must
 * outlive the runner's sweeps.
 */
class SweepHealthBoard
{
  public:
    /**
     * Whether the board should run: CG_BOARD=1 forces it on, CG_BOARD=0
     * off; unset enables it exactly when stderr is a TTY (so piped /
     * CI output stays clean).
     */
    static bool enabledFromEnv();

    /** Install on @p runner (which must outlive this board's use). */
    void attach(SweepRunner &runner);

  private:
    void observe(std::size_t done, std::size_t total,
                 const RunDescriptor &descriptor,
                 const RunOutcome &outcome);

    struct ModeAggregate
    {
        Count runs = 0;
        Count repairs = 0;
    };

    SweepRunner *_runner = nullptr;
    StatusLine _line{true};
    double _batchStart = 0.0;
    std::size_t _lastDone = 0;
    ThreadPool::Stats _batchBaseStats{};
    std::map<std::string, ModeAggregate> _modes;
};

} // namespace commguard::sim

#endif // COMMGUARD_SIM_TELEMETRY_EXPORT_HH
