/**
 * @file
 * One place for every CG_* environment knob the benches and the
 * experiment engine honor. Each knob is parsed once (first access) with
 * a documented default; bench mains and helpers read the struct instead
 * of re-parsing getenv() with ad-hoc rules.
 *
 * Knobs:
 *   CG_QUICK         flag, default off  reduced sweeps (fewer seeds /
 *                                       points)
 *   CG_JOBS          int,  default 0    host threads for sweeps; 0 =
 *                                       number of hardware threads;
 *                                       1 = sequential
 *   CG_CSV           flag, default off  also print tables as CSV
 *   CG_JSON          flag, default off  write BENCH_<name>.json per
 *                                       table
 *   CG_JSONL         path, default ""   append one JSON record per
 *                                       sweep run to this file
 *                                       ("" disables)
 *   CG_TRACE_EVENTS  flag, default off  record the frame-lifecycle
 *                                       event trace per run and write
 *                                       one Perfetto JSON file per run
 *                                       (docs/TRACING.md)
 *   CG_TRACE_OUT     dir,  default      directory for the per-run
 *                         "bench_out"   trace files; only meaningful
 *                                       with CG_TRACE_EVENTS
 *   CG_MODE          name, default ""   restrict scenario mode axes to
 *                                       one registered protection mode
 *                                       ("" = all modes); unknown
 *                                       names are rejected via fatal()
 *                                       with the registered-name list
 *   CG_TELEMETRY_SLICES
 *                    int,  default 0    sample every run's metric
 *                                       registry every N scheduler
 *                                       rounds (docs/TELEMETRY.md);
 *                                       0 disables sampling
 *   CG_TELEMETRY_OUT path, default ""   append one telemetry record
 *                                       per sample to this JSONL file
 *                                       and write the HTML run report
 *                                       next to it; only meaningful
 *                                       with CG_TELEMETRY_SLICES
 *   CG_BOARD         flag, default auto force the sweep health board
 *                                       on (1) or off (0); unset = on
 *                                       when stderr is a TTY
 *
 * Flag semantics (common/env.hh): set and neither "" nor "0" means on.
 * Invalid combinations (CG_TRACE_OUT without CG_TRACE_EVENTS, an empty
 * CG_TRACE_OUT, CG_TELEMETRY_OUT without CG_TELEMETRY_SLICES) are
 * rejected via fatal() at parse time — and so is any CG_* variable
 * that is not a known knob, so typos like CG_TELEMTRY_OUT die at
 * startup instead of silently no-opping. Tools with their own knobs
 * register them via allowEnvKey() before the first parse: cg_fuzz's
 * CG_FUZZ_BUDGET.
 */

#ifndef COMMGUARD_SIM_ENV_OPTIONS_HH
#define COMMGUARD_SIM_ENV_OPTIONS_HH

#include <string>

#include "common/types.hh"

namespace commguard::sim
{

/** Parsed CG_* environment options. */
struct EnvOptions
{
    bool quick = false;        //!< CG_QUICK
    unsigned jobs = 0;         //!< CG_JOBS (0 = hardware threads)
    bool csv = false;          //!< CG_CSV
    bool json = false;         //!< CG_JSON
    std::string jsonlPath;     //!< CG_JSONL ("" = disabled)
    bool traceEvents = false;  //!< CG_TRACE_EVENTS
    std::string traceOut = "bench_out"; //!< CG_TRACE_OUT
    std::string modeFilter;    //!< CG_MODE ("" = all registered modes)
    Count telemetrySlices = 0; //!< CG_TELEMETRY_SLICES (0 = disabled)
    std::string telemetryOut;  //!< CG_TELEMETRY_OUT ("" = disabled)
    int healthBoard = -1;      //!< CG_BOARD (-1 = auto: stderr TTY)

    /** The process's options, parsed once on first call. */
    static const EnvOptions &get();
};

/**
 * Parse the CG_* environment right now (no caching). Validation
 * failures exit via fatal(). Exposed separately from EnvOptions::get()
 * so tests can exercise parsing (including the fatal paths, in death
 * tests) without disturbing the process-wide cached options.
 */
EnvOptions parseEnvOptions();

/**
 * Register @p key as a known CG_* environment variable so the
 * unknown-knob scan in parseEnvOptions() accepts it. For tools that
 * layer their own knobs on top of the shared set (cg_fuzz's
 * CG_FUZZ_BUDGET); call before the first EnvOptions::get() /
 * parseEnvOptions(). Idempotent.
 */
void allowEnvKey(const std::string &key);

/** Whether @p key is a built-in knob or was registered via
 *  allowEnvKey(). */
bool isKnownEnvKey(const std::string &key);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_ENV_OPTIONS_HH
