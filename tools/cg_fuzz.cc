/**
 * @file
 * Deterministic stress-fuzz driver (docs/FUZZING.md).
 *
 *   cg_fuzz run [--cases=N] [--budget-seconds=S] [--seed=BASE]
 *               [--jobs=N] [--mode=<mode>] [--break=<hook>]
 *               [--out=<bundle.json>]
 *       Draw seeded FuzzCases and check every harness invariant until
 *       the case count or the wall-clock budget (CG_FUZZ_BUDGET
 *       seconds, default 10) runs out. On the first failing case a
 *       greedy shrink pass minimizes it and a repro bundle is written.
 *
 *   cg_fuzz replay <bundle.json>
 *       Re-run the case embedded in a repro bundle.
 *
 * Exit codes: 0 all cases clean / replay clean, 1 invariant failure
 * found (bundle written) or reproduced, 2 usage error / unreadable
 * bundle, 4 watchdog kill (a case exceeded its per-case wall budget —
 * the deadlock detector).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/env.hh"
#include "sim/env_options.hh"
#include "sim/fuzz.hh"
#include "sim/protection.hh"
#include "sim/telemetry_export.hh"

using namespace commguard;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cg_fuzz run [--cases=N] [--budget-seconds=S] "
        "[--seed=BASE]\n"
        "                   [--jobs=N] [--mode=<mode>] "
        "[--break=<hook>]\n"
        "                   [--out=<bundle.json>]\n"
        "       cg_fuzz replay <bundle.json>\n"
        "\n"
        "--mode pins every case to one registered protection mode\n"
        "hooks (test-only, corrupt one invariant): counter, "
        "determinism, schema\n"
        "environment: CG_FUZZ_BUDGET (seconds, default 10)\n"
        "exit codes: 0 clean, 1 failure found/reproduced, 2 usage, "
        "4 watchdog\n");
    return 2;
}

/** Parse "--key=value"; returns false when @p arg has another key. */
bool
keyValue(const std::string &arg, const std::string &key,
         std::string &value)
{
    const std::string prefix = "--" + key + "=";
    if (arg.rfind(prefix, 0) != 0)
        return false;
    value = arg.substr(prefix.size());
    return true;
}

bool
parseCount(const std::string &text, long &out)
{
    try {
        std::size_t consumed = 0;
        out = std::stol(text, &consumed);
        return consumed == text.size() && out >= 0;
    } catch (const std::exception &) {
        return false;
    }
}

void
printFailures(const sim::FuzzVerdict &verdict)
{
    for (const std::string &failure : verdict.failures)
        std::fprintf(stderr, "  %s\n", failure.c_str());
}

int
cmdRun(const std::vector<std::string> &args)
{
    long cases = -1;  // -1: run until the budget expires.
    double budget_seconds =
        static_cast<double>(envLong("CG_FUZZ_BUDGET", 10));
    std::uint64_t base_seed = 1;
    long jobs_override = 0;
    bool mode_pinned = false;
    protection::ProtectionMode pinned_mode{};
    std::string break_hook;
    std::string bundle_path = "fuzz_repro.json";

    for (const std::string &arg : args) {
        std::string value;
        long number = 0;
        if (keyValue(arg, "cases", value)) {
            if (!parseCount(value, cases) || cases < 1) {
                std::fprintf(stderr,
                             "cg_fuzz: bad --cases value '%s'\n",
                             value.c_str());
                return usage();
            }
        } else if (keyValue(arg, "budget-seconds", value)) {
            if (!parseCount(value, number) || number < 1) {
                std::fprintf(
                    stderr,
                    "cg_fuzz: bad --budget-seconds value '%s'\n",
                    value.c_str());
                return usage();
            }
            budget_seconds = static_cast<double>(number);
        } else if (keyValue(arg, "seed", value)) {
            if (!parseCount(value, number)) {
                std::fprintf(stderr,
                             "cg_fuzz: bad --seed value '%s'\n",
                             value.c_str());
                return usage();
            }
            base_seed = static_cast<std::uint64_t>(number);
        } else if (keyValue(arg, "jobs", value)) {
            if (!parseCount(value, jobs_override) ||
                jobs_override < 1) {
                std::fprintf(stderr,
                             "cg_fuzz: bad --jobs value '%s'\n",
                             value.c_str());
                return usage();
            }
        } else if (keyValue(arg, "mode", value)) {
            if (!protection::tryParseProtectionMode(value,
                                                    &pinned_mode)) {
                std::fprintf(
                    stderr,
                    "cg_fuzz: unknown protection mode '%s' "
                    "(registered modes: %s)\n",
                    value.c_str(),
                    protection::ProtectionRegistry::instance()
                        .nameList()
                        .c_str());
                return 2;
            }
            mode_pinned = true;
        } else if (keyValue(arg, "break", value)) {
            break_hook = value;
        } else if (keyValue(arg, "out", value)) {
            bundle_path = value;
        } else {
            std::fprintf(stderr, "cg_fuzz: unknown argument '%s'\n",
                         arg.c_str());
            return usage();
        }
    }

    // A single case is far faster than the whole-session budget; a
    // case that outlives it is hung, not slow.
    const double case_budget =
        budget_seconds < 30.0 ? 30.0 : budget_seconds;

    sim::FuzzWatchdog watchdog;
    const auto start = std::chrono::steady_clock::now();
    const auto elapsed = [&start] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };

    // Per-case health board: a live line over the case loop, enabled
    // by the same CG_BOARD/TTY rule as cg_bench's sweep board.
    sim::StatusLine status(sim::SweepHealthBoard::enabledFromEnv());

    std::size_t checked = 0;
    std::size_t runs = 0;
    for (std::uint64_t index = 0;; ++index) {
        if (cases >= 0 && index >= static_cast<std::uint64_t>(cases))
            break;
        if (cases < 0 && checked > 0 && elapsed() >= budget_seconds)
            break;

        sim::FuzzCase fuzz_case =
            sim::randomFuzzCase(base_seed + index);
        if (jobs_override > 0)
            fuzz_case.jobs = static_cast<unsigned>(jobs_override);
        if (mode_pinned)
            fuzz_case.mode = pinned_mode;
        fuzz_case.breakInvariant = break_hook;

        watchdog.arm(case_budget,
                     "case: " + sim::fuzzCaseJson(fuzz_case).dump());
        sim::FuzzVerdict verdict = sim::checkFuzzCase(fuzz_case);
        watchdog.disarm();
        ++checked;
        runs += verdict.runs;

        {
            char line[160];
            std::snprintf(line, sizeof line,
                          "[fuzz] %zu case%s, %zu sweep runs, %.1fs "
                          "(budget %.0fs)",
                          checked, checked == 1 ? "" : "s", runs,
                          elapsed(), budget_seconds);
            status.update(line);
        }

        if (!verdict.ok()) {
            std::fprintf(stderr,
                         "cg_fuzz: case seed %llu violates %zu "
                         "invariant(s):\n",
                         static_cast<unsigned long long>(
                             fuzz_case.caseSeed),
                         verdict.failures.size());
            printFailures(verdict);

            std::fprintf(stderr, "cg_fuzz: shrinking...\n");
            watchdog.arm(case_budget * 4,
                         "shrink of case seed " +
                             std::to_string(fuzz_case.caseSeed));
            const sim::FuzzCase minimal =
                sim::shrinkFuzzCase(fuzz_case);
            const sim::FuzzVerdict minimal_verdict =
                sim::checkFuzzCase(minimal);
            watchdog.disarm();

            sim::writeReproBundle(bundle_path, minimal,
                                  minimal_verdict.failures);
            std::fprintf(stderr,
                         "cg_fuzz: wrote repro bundle '%s' "
                         "(replay with 'cg_fuzz replay %s')\n",
                         bundle_path.c_str(), bundle_path.c_str());
            return 1;
        }
    }

    status.finish("");
    std::printf("cg_fuzz: %zu case%s (%zu sweep runs) clean in %.1fs\n",
                checked, checked == 1 ? "" : "s", runs, elapsed());
    return 0;
}

int
cmdReplay(const std::vector<std::string> &args)
{
    if (args.size() != 1)
        return usage();

    std::ifstream in(args[0]);
    if (!in.good()) {
        std::fprintf(stderr, "cg_fuzz: cannot open '%s'\n",
                     args[0].c_str());
        return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Json bundle;
    std::string error;
    if (!Json::parse(buffer.str(), bundle, &error)) {
        std::fprintf(stderr, "cg_fuzz: '%s': parse error: %s\n",
                     args[0].c_str(), error.c_str());
        return 2;
    }
    sim::FuzzCase fuzz_case;
    if (!sim::reproBundleFromJson(bundle, fuzz_case, &error)) {
        std::fprintf(stderr, "cg_fuzz: '%s': invalid bundle: %s\n",
                     args[0].c_str(), error.c_str());
        return 2;
    }

    sim::FuzzWatchdog watchdog;
    watchdog.arm(120.0, "replay of '" + args[0] + "'");
    const sim::FuzzVerdict verdict = sim::checkFuzzCase(fuzz_case);
    watchdog.disarm();

    if (!verdict.ok()) {
        std::fprintf(stderr,
                     "cg_fuzz: reproduced %zu invariant failure(s):\n",
                     verdict.failures.size());
        printFailures(verdict);
        return 1;
    }
    std::printf("cg_fuzz: bundle case is clean (%zu sweep runs)\n",
                verdict.runs);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // cg_fuzz layers its own knob on the shared CG_* set; register it
    // before anything triggers the unknown-variable scan, then
    // validate the environment up front so a typo'd knob is fatal on
    // every subcommand.
    sim::allowEnvKey("CG_FUZZ_BUDGET");
    (void)sim::EnvOptions::get();

    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
        usage();
        return 0;
    }

    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (args[0] == "run")
        return cmdRun(rest);
    if (args[0] == "replay")
        return cmdReplay(rest);

    std::fprintf(stderr, "cg_fuzz: unknown command '%s'\n",
                 args[0].c_str());
    return usage();
}
