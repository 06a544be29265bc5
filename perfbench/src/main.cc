/**
 * @file
 * perfbench: the repository benchmark driver.
 *
 *   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
 *             [--refs <dir>] [--out <dir>]
 *   perfbench --regenerate --workload <name> [--refs <dir>] [--out <dir>]
 *
 * --trace 0 measures the end-to-end metrics: the workload's runs go
 * through sim::SweepRunner::runAll in passes until --seconds have
 * elapsed, and every run's output digest is checked against the
 * committed reference. --trace 1 is the separate traced run: it drives
 * the same runs step by step through the public layer calls
 * (streamit::loadGraph, Multicore::run, App::quality,
 * Registry::snapshot, the export serializers), wraps each call in a
 * span, adds the isolated-call probes, and reports per-layer metrics
 * plus the workload-purpose self-check. --regenerate rewrites the
 * reference digests of every run a seed can select.
 *
 * The last stdout line is one JSON object:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * See perfbench/README.md for every metric, unit and workload.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "apps/app.hh"
#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"
#include "sim/telemetry_export.hh"
#include "sim/trace_export.hh"
#include "streamit/loader.hh"

#include "probes.hh"
#include "span.hh"
#include "workloads.hh"

extern char **environ;

namespace perfbench
{
namespace
{

using namespace commguard;
namespace fs = std::filesystem;

/** Anchors the span clock at static initialization (process start). */
const std::int64_t kProcessStartNs = nowNs();

const std::vector<std::string> kModes = {
    "raw", "reliable-queue", "commguard", "replicate", "abft"};

/** Set-up repetitions; setup_s is their median. */
constexpr int kSetupReps = 5;

#if defined(__clang__)
const char *const kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
const char *const kCompiler = "gcc " __VERSION__;
#else
const char *const kCompiler = "unknown";
#endif

#if defined(__OPTIMIZE__)
constexpr bool kOptimized = true;
#else
constexpr bool kOptimized = false;
#endif

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool regenerate = false;
    std::string refs = "perfbench/ref";
    std::string out = ".bench_build/perfbench-out";
};

[[noreturn]] void
usage(const std::string &message)
{
    std::cerr << "perfbench: " << message
              << "\nusage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--refs <dir>] "
                 "[--out <dir>]\n"
                 "       perfbench --regenerate --workload <name> "
                 "[--refs <dir>] [--out <dir>]\n";
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--regenerate") {
            args.regenerate = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        try {
            if (flag == "--workload")
                args.workload = value;
            else if (flag == "--seed")
                args.seed = std::stoull(value);
            else if (flag == "--seconds")
                args.seconds = std::stod(value);
            else if (flag == "--trace")
                args.trace = std::stoi(value) != 0;
            else if (flag == "--refs")
                args.refs = value;
            else if (flag == "--out")
                args.out = value;
            else
                usage("unknown flag " + flag);
        } catch (const std::exception &) {
            usage("bad value '" + value + "' for " + flag);
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    if (!(args.seconds > 0.0))
        usage("--seconds must be positive");
    return args;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/** Linear-interpolated percentile @p p (0..100) of @p values. */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = p / 100.0 * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (values[hi] - values[lo]) * (pos - lo);
}

/**
 * A run's quiet-host time: the fastest of its repetitions. Other
 * tenants of a shared host slow every run by up to 2x, for fractions of
 * a second to minutes at a time (last-level cache contention). That
 * slowdown only ever adds time, so the fastest repetition keeps the
 * run's own cost and drops most of the neighbours'.
 */
double
quietMs(const std::vector<double> &repetitions)
{
    return repetitions.empty()
               ? 0.0
               : *std::min_element(repetitions.begin(), repetitions.end());
}

/**
 * Moves the calling thread to the next CPU of the process's affinity
 * mask on each next(), and restores the whole mask when destroyed.
 * Neighbours load a shared host's CPUs unevenly, so a run's fastest
 * repetition should not depend on where the scheduler left the thread.
 * With one job the runs execute on this thread; pool workers keep the
 * mask they were created with.
 */
class CpuRotation
{
  public:
    CpuRotation()
    {
        CPU_ZERO(&_mask);
        if (sched_getaffinity(0, sizeof _mask, &_mask) != 0)
            return;
        for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
            if (CPU_ISSET(cpu, &_mask))
                _cpus.push_back(cpu);
    }

    ~CpuRotation()
    {
        if (!_cpus.empty())
            sched_setaffinity(0, sizeof _mask, &_mask);
    }

    CpuRotation(const CpuRotation &) = delete;
    CpuRotation &operator=(const CpuRotation &) = delete;

    void
    next()
    {
        if (_cpus.empty())
            return;
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(_cpus[_next++ % _cpus.size()], &one);
        sched_setaffinity(0, sizeof one, &one);
    }

  private:
    cpu_set_t _mask;
    std::vector<int> _cpus;
    std::size_t _next = 0;
};

/** Percentile over a pass's runs reported as run_ms_tail. */
constexpr double kTailPercentile = 90.0;

double
peakRssMb()
{
    struct rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

/** The benchmark's verdict and metrics, printed as the last line. */
struct Report
{
    bool correct = true;
    Count attempted = 0;
    Count failed = 0;
    std::vector<std::tuple<std::string, double, std::string>> metrics;

    void
    add(const std::string &name, double value, const std::string &unit)
    {
        metrics.emplace_back(name, std::isfinite(value) ? value : 0.0,
                             unit);
    }

    void
    print() const
    {
        for (const auto &[name, value, unit] : metrics)
            std::cout << "  " << std::left << std::setw(34) << name
                      << ' ' << value << ' ' << unit << '\n';
        std::ostringstream line;
        line << std::setprecision(17) << "{\"correct\": "
             << (correct ? "true" : "false")
             << ", \"attempted\": " << attempted
             << ", \"failed\": " << failed << ", \"metrics\": {";
        bool first = true;
        for (const auto &[name, value, unit] : metrics) {
            line << (first ? "" : ", ") << '"' << name
                 << "\": {\"value\": " << value << ", \"unit\": \""
                 << unit << "\"}";
            first = false;
        }
        line << "}}";
        std::cout << line.str() << std::endl;
    }
};

// ----------------------------------------------------------------------
// Environment: the export knobs are the program's own CG_* variables,
// read once per process, so they are set before anything parses them.
// ----------------------------------------------------------------------

struct ExportPaths
{
    std::string dir;
    std::string jsonl;
    std::string telemetry;
    std::string traces;
};

ExportPaths
exportPaths(const std::string &out)
{
    ExportPaths paths;
    paths.dir = out + "/export";
    paths.jsonl = paths.dir + "/runs.jsonl";
    paths.telemetry = paths.dir + "/telemetry.jsonl";
    paths.traces = paths.dir + "/traces";
    return paths;
}

/** Drop inherited CG_* knobs; set the export ones when asked. */
void
configureEnvironment(bool exports, const ExportPaths &paths)
{
    std::vector<std::string> inherited;
    for (char **entry = environ; *entry != nullptr; ++entry) {
        const std::string text = *entry;
        if (text.rfind("CG_", 0) == 0)
            inherited.push_back(text.substr(0, text.find('=')));
    }
    for (const std::string &name : inherited)
        unsetenv(name.c_str());
    if (!exports)
        return;
    setenv("CG_JSONL", paths.jsonl.c_str(), 1);
    setenv("CG_TRACE_EVENTS", "1", 1);
    setenv("CG_TRACE_OUT", paths.traces.c_str(), 1);
    setenv("CG_TELEMETRY_SLICES", std::to_string(kTelemetrySlices).c_str(),
           1);
    setenv("CG_TELEMETRY_OUT", paths.telemetry.c_str(), 1);
}

/** Bytes under @p dir, which is then emptied (bounded disk use). */
double
drainExportBytes(const std::string &dir)
{
    std::error_code ec;
    double bytes = 0.0;
    if (fs::exists(dir, ec))
        for (const auto &entry : fs::recursive_directory_iterator(dir, ec))
            if (entry.is_regular_file(ec))
                bytes += static_cast<double>(entry.file_size(ec));
    fs::remove_all(dir, ec);
    fs::create_directories(dir, ec);
    return bytes;
}

// ----------------------------------------------------------------------
// Set-up and passes.
// ----------------------------------------------------------------------

struct Bench
{
    const Workload &workload;
    std::vector<RunKey> keys;
    std::vector<std::string> keyTexts;
    std::map<std::string, std::string> refs;
    std::vector<apps::App> apps;
    std::unique_ptr<sim::SweepRunner> runner;
    std::vector<sim::RunDescriptor> batch;

    Bench(const Workload &w, std::vector<RunKey> k)
        : workload(w), keys(std::move(k))
    {
        for (const RunKey &key : keys)
            keyTexts.push_back(keyText(workload, key));
    }

    /** Build the apps (one span per factory call when @p log is set). */
    void
    buildApps(SpanLog *log, std::vector<double> *build_ms)
    {
        apps.clear();
        for (const AppFactory &factory : workload.apps) {
            const std::int64_t start = nowNs();
            {
                std::optional<Span> span;
                if (log != nullptr)
                    span.emplace(*log, "apps.build");
                apps.push_back(factory.make());
            }
            if (build_ms != nullptr)
                build_ms->push_back(
                    static_cast<double>(nowNs() - start) / 1e6);
        }
        batch.clear();
        for (const RunKey &key : keys)
            batch.push_back(
                {&apps[workload.cells[key.cell].app],
                 loadOptions(workload, key)});
    }

    /** App construction, runner, and one discarded warm-up pass. */
    void
    setUp(SpanLog *log, std::vector<double> *build_ms)
    {
        buildApps(log, build_ms);
        runner = std::make_unique<sim::SweepRunner>(
            workload.jobs, sim::SweepRunner::Caching::Off);
        for (const sim::RunDescriptor &descriptor : batch)
            runner->enqueue(descriptor);
        (void)runner->runAll();
    }

    /** Position of @p descriptor in the batch (runs are all distinct). */
    std::size_t
    indexOf(const sim::RunDescriptor &descriptor) const
    {
        for (std::size_t i = 0; i < batch.size(); ++i) {
            const streamit::LoadOptions &a = batch[i].options;
            const streamit::LoadOptions &b = descriptor.options;
            if (batch[i].app == descriptor.app && a.mode == b.mode &&
                a.injectErrors == b.injectErrors && a.mtbe == b.mtbe &&
                a.seed == b.seed)
                return i;
        }
        throw std::logic_error("perfbench: run not in the batch");
    }

    /** Count runs; a run fails on an abort or a digest mismatch. */
    void
    check(const std::vector<sim::RunOutcome> &outcomes, Report &report)
    {
        for (std::size_t i = 0; i < outcomes.size(); ++i) {
            ++report.attempted;
            const std::string digest = runDigest(outcomes[i]);
            const auto ref = refs.find(keyTexts[i]);
            if (outcomes[i].completed && ref != refs.end() &&
                ref->second == digest)
                continue;
            if (++report.failed <= 5)
                std::cerr << "perfbench: run " << keyTexts[i]
                          << (outcomes[i].completed ? "" : " aborted,")
                          << " digest " << digest << " expected "
                          << (ref == refs.end() ? "(none)" : ref->second)
                          << '\n';
        }
    }
};

struct Pass
{
    double wallMs = 0.0;
    std::vector<double> runMs;  //!< Latency of each run, batch order.
    std::vector<sim::RunOutcome> outcomes;
};

/**
 * One SweepRunner pass. Per-run latency is the time between successive
 * completions on the same worker thread (the first from batch start).
 */
Pass
sweepPass(Bench &bench)
{
    for (const sim::RunDescriptor &descriptor : bench.batch)
        bench.runner->enqueue(descriptor);

    Pass pass;
    pass.runMs.assign(bench.batch.size(), 0.0);
    std::map<std::thread::id, std::int64_t> last;
    std::int64_t start = 0;
    bench.runner->setOutcomeObserver(
        [&](std::size_t, std::size_t, const sim::RunDescriptor &descriptor,
            const sim::RunOutcome &) {
            const std::int64_t now = nowNs();
            const auto found = last.find(std::this_thread::get_id());
            const std::int64_t prev =
                found == last.end() ? start : found->second;
            pass.runMs[bench.indexOf(descriptor)] =
                static_cast<double>(now - prev) / 1e6;
            last[std::this_thread::get_id()] = now;
        });
    start = nowNs();
    pass.outcomes = bench.runner->runAll();
    pass.wallMs = static_cast<double>(nowNs() - start) / 1e6;
    bench.runner->setOutcomeObserver(nullptr);
    return pass;
}

void
printFingerprint(const Args &args, const Workload &workload)
{
    std::cout << "perfbench workload=" << workload.name
              << " seed=" << args.seed << " seconds=" << args.seconds
              << " trace=" << (args.trace ? 1 : 0)
              << "\nfingerprint: build=" << PERFBENCH_BUILD_TYPE
              << " optimized=" << (kOptimized ? "yes" : "no")
              << " compiler=\"" << kCompiler << "\" nproc="
              << std::max(1u, std::thread::hardware_concurrency())
              << " jobs=" << workload.jobs << '\n';
}

// ----------------------------------------------------------------------
// --trace 0: end-to-end metrics.
// ----------------------------------------------------------------------

void
runEndToEnd(const Args &args, Bench &bench, const ExportPaths &paths,
            Report &report)
{
    std::vector<double> setup_s;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const std::int64_t start = rep == 0 ? kProcessStartNs : nowNs();
        bench.setUp(nullptr, nullptr);
        setup_s.push_back(static_cast<double>(nowNs() - start) / 1e9);
    }
    if (bench.workload.exports)
        (void)drainExportBytes(paths.dir);

    std::vector<double> walls;
    std::vector<double> runs;
    std::vector<std::vector<double>> run_ms(bench.batch.size());
    Count insts = 0;
    Cycle cycles = 0;
    CpuRotation rotation;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    do {
        rotation.next();
        Pass pass = sweepPass(bench);
        bench.check(pass.outcomes, report);
        Cycle pass_cycles = 0;
        Count pass_insts = 0;
        for (const sim::RunOutcome &outcome : pass.outcomes) {
            pass_cycles += outcome.totalCycles();
            pass_insts += outcome.totalInstructions();
        }
        if (walls.empty()) {
            cycles = pass_cycles;
            insts = pass_insts;
        } else if (pass_cycles != cycles || pass_insts != insts) {
            std::cerr << "perfbench: simulated work differs between "
                         "passes\n";
            report.correct = false;
        }
        walls.push_back(pass.wallMs);
        runs.insert(runs.end(), pass.runMs.begin(), pass.runMs.end());
        for (std::size_t i = 0; i < pass.runMs.size(); ++i)
            run_ms[i].push_back(pass.runMs[i]);
        if (bench.workload.exports)
            (void)drainExportBytes(paths.dir);
    } while (nowNs() < deadline);

    // Each run's quiet-host time; a pass's wall time is their sum over
    // the worker threads.
    std::vector<double> quiet_ms;
    for (const std::vector<double> &samples : run_ms)
        quiet_ms.push_back(quietMs(samples));
    double pass_ms = 0.0;
    for (double ms : quiet_ms)
        pass_ms += ms;
    pass_ms /= static_cast<double>(bench.workload.jobs);

    std::cout << "passes=" << walls.size() << " runs=" << runs.size()
              << " (" << bench.batch.size() << " per pass); each run's "
              << "quiet time is the fastest of its " << walls.size()
              << " repetitions; run_ms_tail is p"
              << kTailPercentile << " over the " << quiet_ms.size()
              << " runs of a pass\n"
              << "as measured, host noise included: pass wall median "
              << median(walls) << " ms, run latency p50 "
              << percentile(runs, 50.0) << " ms, p90 "
              << percentile(runs, 90.0) << " ms\n";

    report.add("setup_s", median(setup_s), "s");
    report.add("wall_s", pass_ms / 1e3, "s");
    report.add("sim_mips", static_cast<double>(insts) / pass_ms / 1e3,
               "MIPS");
    report.add("run_ms_p50", percentile(quiet_ms, 50.0), "ms");
    report.add("run_ms_tail", percentile(quiet_ms, kTailPercentile), "ms");
    report.add("peak_rss_mb", peakRssMb(), "MB");
    report.add("sim_cycles", static_cast<double>(cycles), "cycles");
}

// ----------------------------------------------------------------------
// --trace 1: per-layer metrics from spans around each layer call.
// ----------------------------------------------------------------------

struct TracedRun
{
    sim::RunOutcome outcome;
    std::string record;
    std::string telemetry;
    std::string traceDoc;
    Count rounds = 0;
};

/**
 * sim::runOnce() unrolled into its layer calls, one span each, plus
 * the export serializers SweepRunner's executor calls on export runs.
 */
void
tracedRun(const Workload &workload, const sim::RunDescriptor &descriptor,
          streamit::LoaderScratch &scratch, SpanLog &log,
          std::int64_t run, TracedRun &out)
{
    Span root(log, "bench.run", run);
    const apps::App &app = *descriptor.app;
    streamit::LoadedApp loaded;
    {
        Span span(log, "streamit.load", run);
        loaded = streamit::loadGraph(app.graph, app.input,
                                     app.steadyIterations,
                                     descriptor.options, &scratch);
    }
    MachineRunResult result;
    {
        Span span(log, "machine.run", run);
        result = loaded.machine->run();
    }
    out.rounds = loaded.machine->schedulerRound();

    sim::RunOutcome &outcome = out.outcome;
    outcome.completed = result.completed;
    outcome.output = loaded.collector->takeItems();
    {
        Span span(log, "media.quality", run);
        outcome.qualityDb = app.quality(outcome.output);
    }
    {
        Span span(log, "export.snapshot", run);
        outcome.snapshot = loaded.machine->metrics().snapshot();
    }
    outcome.snapshot.setCounter("run/completed", result.completed ? 1 : 0);
    outcome.snapshot.setCounter("run/outputItems", outcome.output.size());
    outcome.snapshot.setGauge("run/qualityDb", outcome.qualityDb);
    outcome.eventTrace = loaded.machine->eventTrace();
    outcome.telemetry = loaded.machine->telemetryRecorder();

    if (!workload.exports)
        return;
    {
        Span span(log, "export.record", run);
        out.record = sim::runRecordJson(descriptor, outcome).dump();
    }
    {
        Span span(log, "export.telemetry", run);
        out.telemetry = sim::telemetryLines(descriptor, outcome,
                                            static_cast<Count>(run));
    }
    if (outcome.eventTrace != nullptr) {
        Span span(log, "export.trace", run);
        out.traceDoc = sim::perfettoTraceJson(*outcome.eventTrace).dump();
    }
}

/** Run the batch with workload.jobs threads, one SpanLog per run. */
std::vector<TracedRun>
tracedPass(Bench &bench, std::vector<streamit::LoaderScratch> &scratches,
           std::int64_t run_base, SpanLog &log)
{
    const std::size_t n = bench.batch.size();
    std::vector<TracedRun> runs(n);
    std::vector<SpanLog> logs(n);
    std::atomic<std::size_t> next{0};
    std::exception_ptr failure;
    std::mutex failure_mutex;
    auto worker = [&](unsigned slot) {
        try {
            scratches[slot].beginBatch();
            for (std::size_t i = next++; i < n; i = next++)
                tracedRun(bench.workload, bench.batch[i], scratches[slot],
                          logs[i], run_base + static_cast<std::int64_t>(i),
                          runs[i]);
        } catch (...) {
            std::lock_guard<std::mutex> lock(failure_mutex);
            if (!failure)
                failure = std::current_exception();
        }
    };
    if (bench.workload.jobs <= 1) {
        worker(0);
    } else {
        std::vector<std::thread> threads;
        for (unsigned slot = 0; slot < bench.workload.jobs; ++slot)
            threads.emplace_back(worker, slot);
        for (std::thread &thread : threads)
            thread.join();
    }
    if (failure)
        std::rethrow_exception(failure);
    for (const SpanLog &run_log : logs)
        log.append(run_log);
    return runs;
}

/** Write a traced pass's artifacts the way SweepRunner does. */
void
writeExports(Bench &bench, std::vector<TracedRun> &runs,
             const std::vector<sim::RunOutcome> &outcomes,
             const ExportPaths &paths, double elapsed_s, Count &trace_serial,
             SpanLog &log)
{
    Span span(log, "export.write");
    std::vector<std::string> records;
    std::vector<std::string> chunks;
    for (TracedRun &run : runs) {
        records.push_back(std::move(run.record));
        chunks.push_back(std::move(run.telemetry));
    }
    sim::appendJsonl(paths.jsonl, records);
    sim::appendJsonl(paths.telemetry, chunks);
    sim::telemetryReportAdd(bench.batch, outcomes, {}, bench.workload.jobs,
                            elapsed_s);
    sim::writeTelemetryReport(paths.telemetry + ".html");
    std::error_code ec;
    fs::create_directories(paths.traces, ec);
    for (std::size_t i = 0; i < runs.size(); ++i) {
        if (runs[i].traceDoc.empty())
            continue;
        const sim::RunDescriptor &descriptor = bench.batch[i];
        sim::writeTraceFile(
            paths.traces + "/trace_" + std::to_string(trace_serial++) +
                "_" + descriptor.app->name + "_" +
                protection::protectionModeName(descriptor.options.mode) +
                "_seed" + std::to_string(descriptor.options.seed) +
                ".json",
            runs[i].traceDoc);
    }
}

/** ECC ops per 1k insts of one error-free commguard run of w's app 0. */
double
companionEccPerKinst(const Workload &workload)
{
    const apps::App app = workload.apps.front().make();
    const sim::RunOutcome outcome = sim::runOnce(
        app, sim::sweepOptions(protection::parseProtectionMode("commguard"),
                               false, 1e6, 0));
    return 1000.0 * static_cast<double>(outcome.eccOps()) /
           static_cast<double>(outcome.totalInstructions());
}

void
runTraced(const Args &args, Bench &bench, const ExportPaths &paths,
          Report &report)
{
    const Workload &workload = bench.workload;
    SpanLog setup_log;
    std::vector<double> build_ms;
    for (int rep = 0; rep < kSetupReps; ++rep)
        bench.setUp(&setup_log, &build_ms);

    if (workload.exports)
        (void)drainExportBytes(paths.dir);
    std::vector<double> untraced_ms;
    std::vector<double> export_bytes;
    SpanLog sweep_log;
    bench.runner->resetPoolStats();

    // Until the time is up, alternate an untraced SweepRunner pass (the
    // end-to-end path: tracing and dispatch overhead, pool counters,
    // export volume) with a traced pass, so both see the same host.
    std::vector<streamit::LoaderScratch> scratches(workload.jobs);
    SpanLog log;
    std::vector<double> traced_ms;
    std::vector<double> run_sum_ms;
    std::map<std::string, double> mode_run_ns;
    std::map<std::string, double> mode_insts;
    std::map<std::string, std::vector<double>> mode_load_ms;
    std::map<std::string, std::vector<double>> mode_machine_ms;
    Count rounds = 0;
    Count trace_serial = 0;
    double trace_bytes = 0.0;
    Count trace_docs = 0;
    std::map<std::string, Count> sums;
    const char *const summed[] = {
        "committedInsts", "blockedSlices",  "eccChecks",
        "eccComputes",    "worksetEccOps", "headerLoads",
        "acceptedItems",  "paddedItems",   "discardedItems"};
    Count timeouts = 0;
    Count deadlocks = 0;
    const std::int64_t deadline =
        nowNs() + static_cast<std::int64_t>(args.seconds * 1e9);
    std::int64_t run_base = 0;
    do {
        Pass pass;
        {
            Span span(sweep_log, "sim.sweep");
            pass = sweepPass(bench);
        }
        bench.check(pass.outcomes, report);
        untraced_ms.push_back(pass.wallMs);
        export_bytes.push_back(drainExportBytes(paths.dir));

        const std::size_t first_span = log.spans().size();
        const std::int64_t pass_base = run_base;
        const std::int64_t start = nowNs();
        std::vector<TracedRun> runs =
            tracedPass(bench, scratches, pass_base, log);
        run_base += static_cast<std::int64_t>(runs.size());

        std::vector<sim::RunOutcome> outcomes;
        for (TracedRun &run : runs) {
            trace_bytes += static_cast<double>(run.traceDoc.size());
            trace_docs += run.traceDoc.empty() ? 0 : 1;
            rounds += run.rounds;
            outcomes.push_back(std::move(run.outcome));
        }
        if (workload.exports)
            writeExports(bench, runs, outcomes, paths,
                         static_cast<double>(nowNs() - start) / 1e9,
                         trace_serial, log);
        const double wall_ms = static_cast<double>(nowNs() - start) / 1e6;
        if (workload.exports)
            (void)drainExportBytes(paths.dir);
        bench.check(outcomes, report);
        traced_ms.push_back(wall_ms);

        double run_sum = 0.0;
        for (std::size_t s = first_span; s < log.spans().size(); ++s) {
            const SpanRecord &span = log.spans()[s];
            if (span.run < 0)
                continue;
            const std::size_t i =
                static_cast<std::size_t>(span.run - pass_base);
            const std::string mode = protection::protectionModeName(
                bench.batch[i].options.mode);
            const std::string name = span.name;
            if (name == "bench.run")
                run_sum += span.ms();
            else if (name == "streamit.load")
                mode_load_ms[mode].push_back(span.ms());
            else if (name == "machine.run") {
                mode_machine_ms[mode].push_back(span.ms());
                mode_run_ns[mode] += span.ms() * 1e6;
                mode_insts[mode] += static_cast<double>(
                    outcomes[i].totalInstructions());
            }
        }
        run_sum_ms.push_back(run_sum);
        for (const sim::RunOutcome &outcome : outcomes) {
            for (const char *leaf : summed)
                sums[leaf] += outcome.snapshot.total(leaf);
            timeouts += outcome.timeoutsFired();
            deadlocks += outcome.deadlockBreaks();
        }
    } while (nowNs() < deadline);
    const double passes = static_cast<double>(traced_ms.size());
    const ThreadPool::Stats pool = bench.runner->poolStats();
    std::cout << "pass wall median (ms): untraced " << median(untraced_ms)
              << " over " << untraced_ms.size() << " passes, traced "
              << median(traced_ms) << " over " << traced_ms.size()
              << " passes\n";

    const std::map<std::string, double> probe = runProbes();

    auto span_ms = [&](const char *name) {
        std::vector<double> values;
        for (const SpanRecord &span : log.spans())
            if (std::strcmp(span.name, name) == 0)
                values.push_back(span.ms());
        return values;
    };

    report.add("apps.build_ms", median(build_ms), "ms");
    double total_run_ns = 0.0;
    for (const std::string &mode : kModes) {
        report.add("streamit.load_ms." + mode, median(mode_load_ms[mode]),
                   "ms");
        report.add("machine.run_ms." + mode,
                   median(mode_machine_ms[mode]), "ms");
        report.add("machine.ns_per_inst." + mode,
                   mode_insts[mode] > 0.0
                       ? mode_run_ns[mode] / mode_insts[mode]
                       : 0.0,
                   "ns");
        total_run_ns += mode_run_ns[mode];
    }
    const double insts = static_cast<double>(sums["committedInsts"]);
    report.add("machine.committed_insts", insts / passes, "count");
    report.add("machine.rounds", static_cast<double>(rounds) / passes,
               "count");
    report.add("machine.blocked_slices",
               static_cast<double>(sums["blockedSlices"]) / passes,
               "count");
    report.add("machine.timeouts_fired",
               static_cast<double>(timeouts) / passes, "count");
    report.add("machine.deadlock_breaks",
               static_cast<double>(deadlocks) / passes, "count");

    for (const char *name :
         {"interp.alu_ns_per_inst", "interp.idct_ns_per_inst",
          "interp.inject_ns_per_inst", "ecc.encode_ns", "ecc.decode_ns"})
        report.add(name, probe.at(name), "ns");
    const double ecc_checks = static_cast<double>(sums["eccChecks"]);
    const double ecc_computes = static_cast<double>(
        sums["eccComputes"] + sums["worksetEccOps"]);
    const double ecc_per_kinst =
        insts > 0.0 ? 1000.0 * (ecc_checks + ecc_computes) / insts : 0.0;
    report.add("ecc.ops_per_kinst", ecc_per_kinst, "ops/kinst");
    report.add("ecc.est_share",
               total_run_ns > 0.0
                   ? (ecc_checks * probe.at("ecc.decode_ns") +
                      ecc_computes * probe.at("ecc.encode_ns")) /
                         total_run_ns
                   : 0.0,
               "ratio");
    for (const char *name :
         {"cg.make_header_ns", "am.header_crossing_ns", "am.aligned_pop_ns",
          "hi.insert_ns", "queue.push_pop_ns.reliable",
          "queue.push_pop_ns.software", "queue.push_pop_ns.workingset"})
        report.add(name, probe.at(name), "ns");
    report.add("cg.header_loads_per_kinst",
               insts > 0.0 ? 1000.0 * static_cast<double>(
                                          sums["headerLoads"]) /
                                 insts
                           : 0.0,
               "loads/kinst");
    const double accepted = static_cast<double>(sums["acceptedItems"]);
    const double wasted = static_cast<double>(sums["paddedItems"] +
                                              sums["discardedItems"]);
    report.add("am.useful_ratio",
               accepted > 0.0 ? accepted / (accepted + wasted) : 0.0,
               "ratio");

    report.add("sweep.dispatch_overhead_ms",
               median(untraced_ms) -
                   median(run_sum_ms) / static_cast<double>(workload.jobs),
               "ms");
    report.add("pool.tasks_stolen",
               static_cast<double>(pool.tasksStolen) / passes,
               "count");
    report.add("pool.idle_wakeups",
               static_cast<double>(pool.idleWakeups) / passes,
               "count");
    report.add("media.quality_ms", median(span_ms("media.quality")), "ms");
    report.add("export.snapshot_ms", median(span_ms("export.snapshot")),
               "ms");
    report.add("export.record_ms", median(span_ms("export.record")), "ms");
    report.add("export.telemetry_ms", median(span_ms("export.telemetry")),
               "ms");
    report.add("export.trace_ms", median(span_ms("export.trace")), "ms");
    report.add("export.write_ms", median(span_ms("export.write")), "ms");
    report.add("export.trace_mb_per_run",
               trace_docs > 0 ? trace_bytes / 1e6 /
                                    static_cast<double>(trace_docs)
                              : 0.0,
               "MB");
    report.add("export_mb", median(export_bytes) / 1e6, "MB");

    const std::map<std::string, double> self = selfTimeByLayer(log.spans());
    for (const char *layer :
         {"bench", "streamit", "machine", "media", "export"}) {
        const auto found = self.find(layer);
        report.add(std::string("self_ms.") + layer,
                   found == self.end() ? 0.0 : found->second / passes,
                   "ms");
    }
    report.add("tracing.overhead_ms",
               median(traced_ms) - median(untraced_ms), "ms");

    // Workload-purpose self-check: each workload still stresses the
    // layer it exists for.
    std::string purpose;
    bool purpose_ok = true;
    if (workload.name == "hdr_heavy") {
        const double other = companionEccPerKinst(*findWorkload("jpeg_interp"));
        purpose_ok = ecc_per_kinst >= 10.0 * other;
        purpose = "ecc.ops_per_kinst " + std::to_string(ecc_per_kinst) +
                  " >= 10 x jpeg_interp's " + std::to_string(other);
    } else if (workload.name == "jpeg_interp") {
        const double other = companionEccPerKinst(*findWorkload("hdr_heavy"));
        purpose_ok = other >= 10.0 * ecc_per_kinst;
        purpose = "hdr_heavy's ecc.ops_per_kinst " + std::to_string(other) +
                  " >= 10 x " + std::to_string(ecc_per_kinst);
    } else if (workload.name == "mode_mix") {
        const double abft = median(mode_load_ms["abft"]);
        const double raw = median(mode_load_ms["raw"]);
        purpose_ok = abft > raw;
        purpose = "streamit.load_ms.abft " + std::to_string(abft) +
                  " > streamit.load_ms.raw " + std::to_string(raw);
    } else if (workload.name == "traced_export") {
        std::string largest;
        for (const auto &[layer, ms] : self)
            if (largest.empty() || ms > self.at(largest))
                largest = layer;
        purpose_ok = largest == "export";
        purpose = "largest self time: " + largest;
    }
    std::cout << "self-check " << (purpose_ok ? "passed" : "FAILED")
              << ": " << purpose << '\n';
    report.correct = report.correct && purpose_ok;

    // The spans, written once at the end.
    SpanLog all;
    all.append(setup_log);
    all.append(sweep_log);
    all.append(log);
    Json spans = Json::array();
    for (const SpanRecord &span : all.spans()) {
        Json entry = Json::object();
        entry["name"] = Json(std::string(span.name));
        entry["start_ns"] = Json(span.startNs);
        entry["end_ns"] = Json(span.endNs);
        entry["parent"] = Json(static_cast<std::int64_t>(span.parent));
        entry["run"] = Json(span.run);
        spans.push(entry);
    }
    const std::string spans_path = args.out + "/spans-" + workload.name +
                                   "-seed" + std::to_string(args.seed) +
                                   ".json";
    std::ofstream(spans_path) << spans.dump() << '\n';
    std::cout << "spans: " << all.spans().size() << " written to "
              << spans_path << '\n';
}

// ----------------------------------------------------------------------
// --regenerate: reference digests of every selectable run.
// ----------------------------------------------------------------------

int
regenerate(const Args &args, const Workload &workload,
           const ExportPaths &paths)
{
    Bench bench(workload, poolKeys(workload));
    bench.buildApps(nullptr, nullptr);
    bench.runner = std::make_unique<sim::SweepRunner>(
        workload.jobs, sim::SweepRunner::Caching::Off);
    const std::vector<sim::RunOutcome> outcomes = sweepPass(bench).outcomes;
    std::map<std::string, std::string> digests;
    int aborted = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        if (!outcomes[i].completed) {
            std::cerr << "perfbench: " << bench.keyTexts[i]
                      << " aborted\n";
            ++aborted;
        }
        digests[bench.keyTexts[i]] = runDigest(outcomes[i]);
    }
    (void)drainExportBytes(paths.dir);
    if (aborted > 0)
        return 1;
    const std::string path = args.refs + "/" + workload.name + ".txt";
    std::error_code ec;
    std::filesystem::create_directories(args.refs, ec);
    if (!writeDigests(path, digests)) {
        std::cerr << "perfbench: cannot write " << path << '\n';
        return 1;
    }
    std::cout << "wrote " << digests.size() << " digests to " << path
              << '\n';
    return 0;
}

} // namespace
} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    const Workload *workload = findWorkload(args.workload);
    if (workload == nullptr)
        usage("unknown workload '" + args.workload + "'");
    if (!kOptimized) {
        std::cerr << "perfbench: refusing to report numbers from a "
                     "non-optimised build ("
                  << PERFBENCH_BUILD_TYPE << ")\n";
        return 3;
    }

    std::error_code ec;
    std::filesystem::create_directories(args.out, ec);
    const ExportPaths paths = exportPaths(args.out);
    configureEnvironment(workload->exports, paths);
    if (args.regenerate)
        return regenerate(args, *workload, paths);

    Bench bench(*workload, passKeys(*workload, args.seed));
    bench.refs = readDigests(args.refs + "/" + workload->name + ".txt");
    if (bench.refs.empty()) {
        std::cerr << "perfbench: no reference digests under " << args.refs
                  << '\n';
        return 1;
    }

    printFingerprint(args, *workload);
    Report report;
    if (args.trace)
        runTraced(args, bench, paths, report);
    else
        runEndToEnd(args, bench, paths, report);
    report.correct = report.correct && report.failed == 0;
    report.print();
    return 0;
}
