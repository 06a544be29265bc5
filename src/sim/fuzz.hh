/**
 * @file
 * Deterministic stress-fuzz harness for the experiment engine
 * (docs/FUZZING.md).
 *
 * A FuzzCase is a seeded point in the configuration space the sweeps
 * actually exercise: a random StreamIt graph shape, a protection
 * mode, MTBE / frame-scale / queue-capacity axes, and a thread-pool
 * width. checkFuzzCase() runs the case through SweepRunner twice —
 * sequentially and with `jobs` workers — and checks every
 * machine-checkable invariant the rest of the toolchain relies on:
 *
 *  - progress: every run completes (the paper's liveness requirement);
 *  - exactness: error-free runs forward exactly the expected item
 *    count;
 *  - determinism: jobs=1 and jobs=N produce bitwise-identical
 *    RunOutcomes AND byte-identical JSONL records;
 *  - conservation: traceConservationErrors() finds no event/counter
 *    mismatch on any run;
 *  - schema: every JSONL record, read back from its text, passes
 *    runRecordErrors() (sim/run_export.hh).
 *
 * Everything derives from FuzzCase::caseSeed, so a failure is
 * replayable from a tiny JSON repro bundle: shrinkFuzzCase() greedily
 * simplifies the failing case axis by axis, writeReproBundle() emits
 * the bundle, and `cg_fuzz replay <bundle>` re-runs it.
 * checkReproBundle() validates the bundle format.
 *
 * The breakInvariant field is a test hook: it deliberately corrupts
 * one checked artifact ("counter", "determinism", "schema") so the
 * harness's failure→shrink→bundle path itself stays tested.
 */

#ifndef COMMGUARD_SIM_FUZZ_HH
#define COMMGUARD_SIM_FUZZ_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "sim/schema_check.hh"
#include "streamit/loader.hh"

namespace commguard::sim
{

/** One seeded point in the fuzzed configuration space. */
struct FuzzCase
{
    std::uint64_t caseSeed = 1;   //!< Identifies the case.
    std::uint64_t graphSeed = 1;  //!< Random-graph shape seed.
    int stages = 3;               //!< Pipeline stages.
    int maxGranularity = 6;       //!< Max items per firing.
    bool allowSplitJoin = true;   //!< Split-join sandwiches allowed.
    protection::ProtectionMode mode = protection::ProtectionMode::CommGuard;
    bool injectErrors = true;
    double mtbe = 64'000.0;       //!< Mean insts between errors.
    Count frameScale = 1;         //!< §5.4 frame-size knob.
    std::size_t queueCapacityWords = 1u << 12;
    Count iterations = 8;         //!< Steady iterations per run.
    unsigned jobs = 2;            //!< Parallel width checked vs jobs=1.
    int sweepSeeds = 2;           //!< Seed indices in the batch.
    std::string breakInvariant;   //!< Test hook; "" in real fuzzing.

    bool operator==(const FuzzCase &other) const = default;
};

/** Derive every axis of a case from @p case_seed (replayable). */
FuzzCase randomFuzzCase(std::uint64_t case_seed);

/** Canonical JSON of a case (snake_case keys, mode by name). */
Json fuzzCaseJson(const FuzzCase &fuzz_case);

/**
 * Parse fuzzCaseJson() output. Returns false (setting @p error when
 * given) on missing or wrongly typed fields (seeds and axes are
 * counts), unknown mode names, or non-positive axes.
 */
bool fuzzCaseFromJson(const Json &json, FuzzCase &out,
                      std::string *error = nullptr);

/** Outcome of one checked case. */
struct FuzzVerdict
{
    std::vector<std::string> failures;  //!< Empty means all good.
    std::size_t runs = 0;               //!< Sweep runs executed.

    bool ok() const { return failures.empty(); }
};

/** Execute @p fuzz_case and check every invariant (file comment). */
FuzzVerdict checkFuzzCase(const FuzzCase &fuzz_case);

/**
 * Greedy minimization: walk the axes (sweep seeds, graph shape,
 * iterations, frame scale, queue capacity, error injection, mode,
 * jobs), try the simplest value for each, and keep any substitution
 * under which checkFuzzCase() still fails. Runs at most
 * @p max_checks re-executions; returns the smallest still-failing
 * case found (the input itself in the worst case).
 */
FuzzCase shrinkFuzzCase(const FuzzCase &failing, int max_checks = 48);

/**
 * The repro bundle document:
 * {"schema_version": ..., "kind": "fuzz_repro", "case": {...},
 *  "failures": ["...", ...]}.
 */
Json reproBundleJson(const FuzzCase &fuzz_case,
                     const std::vector<std::string> &failures);

/** Parse a repro bundle; extracts the embedded case. */
bool reproBundleFromJson(const Json &json, FuzzCase &out,
                         std::string *error = nullptr);

/**
 * Check a repro bundle's text: reproBundleFromJson() accepts it, and
 * its case survives its own canonical round-trip, so replay tools see
 * exactly what the fuzzer saw.
 */
SchemaErrors checkReproBundle(const std::string &text);

/** Write reproBundleJson() to @p path (fatal on I/O failure). */
void writeReproBundle(const std::string &path,
                      const FuzzCase &fuzz_case,
                      const std::vector<std::string> &failures);

/**
 * Wall-clock deadlock watchdog: arm() starts a countdown; if
 * disarm() is not called within the budget the process is killed via
 * std::_Exit(kFuzzWatchdogExitCode) after printing @p context (the
 * repro info) to stderr — a hung sweep must fail the gate, not wedge
 * it. One watchdog may be armed and disarmed repeatedly.
 */
class FuzzWatchdog
{
  public:
    FuzzWatchdog();
    ~FuzzWatchdog();

    FuzzWatchdog(const FuzzWatchdog &) = delete;
    FuzzWatchdog &operator=(const FuzzWatchdog &) = delete;

    /** Start (or restart) the countdown of @p budget_seconds. */
    void arm(double budget_seconds, std::string context);

    /** Cancel the countdown. */
    void disarm();

  private:
    void monitorLoop();

    std::mutex _mutex;
    std::condition_variable _changed;
    std::thread _monitor;
    std::chrono::steady_clock::time_point _deadline;
    std::string _context;
    std::uint64_t _generation = 0;  //!< Bumped by arm()/disarm().
    bool _armed = false;
    bool _stopping = false;
};

/** Exit code of a watchdog kill (distinct from fatal()'s 1). */
inline constexpr int kFuzzWatchdogExitCode = 4;

} // namespace commguard::sim

#endif // COMMGUARD_SIM_FUZZ_HH
