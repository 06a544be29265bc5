/**
 * @file
 * Unified experiment driver: one binary for the whole scenario
 * catalogue (docs/SCENARIOS.md).
 *
 *   cg_bench list [--json]          catalogue (human table or JSON)
 *   cg_bench run --all              run every scenario
 *   cg_bench run --tag=<tag>        run every scenario carrying <tag>
 *   cg_bench run <name> [<name>…]   run scenarios by name
 *   cg_bench run --mode=<mode> …    restrict mode-sweeping scenarios
 *                                   to one registered protection mode
 *   cg_bench serve-run …            service mode (docs/SERVICE.md):
 *                                   one long-lived machine under an
 *                                   open-loop streaming traffic model
 *                                   with mid-run events; prints the
 *                                   deterministic summary record and
 *                                   optionally writes the full JSONL
 *                                   stream (`jsonl_check --service`)
 *
 * Behaviour knobs come from the environment, same as the rest of the
 * toolchain: CG_QUICK (thinned axes), CG_JOBS (sweep parallelism),
 * CG_CSV (CSV after each table), CG_JSON (BENCH_<name>.json files),
 * CG_JSONL (per-run records), CG_TRACE_EVENTS (Perfetto traces),
 * CG_CACHE_DIR (result cache directory, docs/RESULT_CACHE.md).
 *
 * Fuzz repro bundles replay with `cg_fuzz replay` (docs/FUZZING.md).
 *
 * Exit codes: 0 success, 1 runtime failure (fatal() inside a scenario,
 * or a serve-run that did not complete), 2 usage error (unknown
 * subcommand, scenario or tag, a serve-run flag out of range, unusable
 * CG_CACHE_DIR).
 */

#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "sim/env_options.hh"
#include "sim/protection.hh"
#include "sim/scenario.hh"
#include "sim/service_driver.hh"
#include "sim/sweep_runner.hh"
#include "sim/telemetry_export.hh"

using namespace commguard;

namespace
{

int
usage(std::ostream &out, int code)
{
    out << "usage: cg_bench <command> [args]\n"
           "\n"
           "commands:\n"
           "  list [--json]            print the scenario catalogue\n"
           "  run --all                run every scenario\n"
           "  run --tag=<tag>          run scenarios carrying <tag>\n"
           "  run <name> [<name>...]   run scenarios by name\n"
           "  run --mode=<mode> ...    restrict protection-mode axes\n"
           "                           (registered modes: "
        << protection::ProtectionRegistry::instance().nameList()
        << ")\n"
           "  serve-run [opts]         service mode: stream an "
           "open-loop traffic model\n"
           "                           through one long-lived machine "
           "(docs/SERVICE.md)\n"
           "    --app=<name>           application (default fft)\n"
           "    --mode=<mode>          protection mode (default "
           "commguard)\n"
           "    --frames=<n>           total frames (default 100000)\n"
           "    --seed=<n>             error-seed index (default 0)\n"
           "    --arrival-seed=<n>     traffic-model seed (default 1)\n"
           "    --mtbe=<f>             uniform MTBE in instructions\n"
           "    --per-core-mtbe=<f,..> per-core MTBE table\n"
           "    --burst=<n> --gap=<n>  mean burst frames / gap slices\n"
           "    --backlog=<n>          max in-flight frames\n"
           "    --snapshot-frames=<n>  snapshot cadence in frames\n"
           "    --degrade=<f>:<c>:<x>  at frame f, divide core c's "
           "MTBE by x\n"
           "    --remap=<f>:<r>        at frame f, rotate placement "
           "by r slots\n"
           "    --out=<path>           write the full JSONL stream "
           "here\n"
           "\n"
           "environment: CG_QUICK CG_JOBS CG_CSV CG_JSON CG_JSONL "
           "CG_MODE CG_TRACE_EVENTS CG_TELEMETRY_SLICES "
           "CG_TELEMETRY_OUT CG_BOARD CG_CACHE_DIR "
           "CG_SERVICE_FRAMES CG_SERVICE_SNAPSHOT_FRAMES\n";
    return code;
}

void
listAvailable(std::ostream &out)
{
    out << "available scenarios:\n";
    for (const std::string &name : sim::ScenarioRegistry::instance().names())
        out << "  " << name << "\n";
}

int
cmdList(const std::vector<std::string> &args)
{
    bool json = false;
    for (const std::string &arg : args) {
        if (arg == "--json") {
            json = true;
        } else {
            std::cerr << "cg_bench list: unknown argument '" << arg
                      << "'\n";
            return usage(std::cerr, 2);
        }
    }

    if (json) {
        std::cout << sim::scenarioListJson().dump() << "\n";
        return 0;
    }

    const std::vector<const sim::Scenario *> scenarios =
        sim::ScenarioRegistry::instance().all();
    std::size_t name_width = 4;
    for (const sim::Scenario *scenario : scenarios)
        name_width = std::max(name_width, scenario->name.size());

    for (const sim::Scenario *scenario : scenarios) {
        std::string tags;
        for (const std::string &tag : scenario->tags)
            tags += (tags.empty() ? "" : ",") + tag;
        std::cout << scenario->name
                  << std::string(name_width - scenario->name.size() + 2,
                                 ' ')
                  << "[" << tags << "] " << scenario->description
                  << " (" << scenario->paperRef << ")\n";
    }
    std::cout << "\n" << scenarios.size() << " scenarios. Run with "
              << "'cg_bench run <name>' or 'cg_bench run --all'.\n";
    return 0;
}

int
cmdRun(const std::vector<std::string> &raw_args)
{
    // --mode=<name> may appear anywhere among the run arguments.
    std::vector<std::string> args;
    std::vector<protection::ProtectionMode> mode_filter;
    for (const std::string &arg : raw_args) {
        if (arg.rfind("--mode=", 0) == 0) {
            const std::string name = arg.substr(7);
            protection::ProtectionMode mode{};
            if (!protection::tryParseProtectionMode(name, &mode)) {
                std::cerr
                    << "cg_bench run: unknown protection mode '"
                    << name << "' (registered modes: "
                    << protection::ProtectionRegistry::instance()
                           .nameList()
                    << ")\n";
                return 2;
            }
            mode_filter.assign(1, mode);
        } else {
            args.push_back(arg);
        }
    }

    if (args.empty()) {
        std::cerr << "cg_bench run: expected --all, --tag=<tag> or "
                     "scenario names\n";
        return usage(std::cerr, 2);
    }

    const sim::ScenarioRegistry &registry =
        sim::ScenarioRegistry::instance();
    std::vector<const sim::Scenario *> selected;

    if (args[0] == "--all") {
        if (args.size() != 1) {
            std::cerr << "cg_bench run: --all takes no further "
                         "arguments\n";
            return usage(std::cerr, 2);
        }
        selected = registry.all();
    } else if (args[0].rfind("--tag=", 0) == 0) {
        if (args.size() != 1) {
            std::cerr << "cg_bench run: --tag takes no further "
                         "arguments\n";
            return usage(std::cerr, 2);
        }
        const std::string tag = args[0].substr(6);
        selected = registry.withTag(tag);
        if (selected.empty()) {
            std::cerr << "cg_bench run: no scenario carries tag '"
                      << tag << "'\n";
            listAvailable(std::cerr);
            return 2;
        }
    } else {
        for (const std::string &name : args) {
            const sim::Scenario *scenario = registry.find(name);
            if (scenario == nullptr) {
                std::cerr << "cg_bench run: unknown scenario '" << name
                          << "'\n";
                listAvailable(std::cerr);
                return 2;
            }
            selected.push_back(scenario);
        }
    }

    // Sweep health board (docs/TELEMETRY.md): live status line over
    // the shared runner's batches when stderr is a TTY (or CG_BOARD=1
    // forces it). Scenarios with private runners keep the default
    // progress reporter.
    sim::SweepHealthBoard board;
    if (sim::SweepHealthBoard::enabledFromEnv())
        board.attach(sim::sharedRunner());

    std::size_t tables = 0;
    std::size_t rows = 0;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        const sim::Scenario &scenario = *selected[i];
        if (selected.size() > 1) {
            std::cout << "[" << (i + 1) << "/" << selected.size()
                      << "] " << scenario.name << "\n";
        }
        sim::ScenarioContext::Options options =
            sim::ScenarioContext::optionsFromEnv();
        if (!mode_filter.empty())
            options.modeFilter = mode_filter;
        sim::ScenarioContext ctx(std::move(options));
        scenario.run(ctx);
        tables += ctx.publishedTables();
        rows += ctx.publishedRows();
        if (i + 1 < selected.size())
            std::cout << "\n";
    }

    if (selected.size() > 1) {
        std::cout << "\nran " << selected.size() << " scenarios ("
                  << tables << " tables, " << rows << " rows)\n";
    }
    return 0;
}

/** Strict decimal Count parse for serve-run flags and CG_SERVICE_*. */
bool
parseCount(const std::string &text, Count *out)
{
    if (text.empty() || text.size() > 12)
        return false;
    Count value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<Count>(c - '0');
    }
    *out = value;
    return true;
}

/** parseCount() that also rejects values above @p max (flags narrowed
 *  to int). */
bool
parseCountUpTo(const std::string &text, Count max, Count *out)
{
    return parseCount(text, out) && *out <= max;
}

constexpr Count kIntMax = std::numeric_limits<int>::max();

/** Strict positive double parse (--mtbe, --per-core-mtbe entries). */
bool
parsePositiveDouble(const std::string &text, double *out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end != text.c_str() + text.size() || !(value > 0.0))
        return false;
    *out = value;
    return true;
}

int
cmdServeRun(const std::vector<std::string> &args)
{
    const auto bad = [](const std::string &why) {
        std::cerr << "cg_bench serve-run: " << why << "\n";
        return usage(std::cerr, 2);
    };

    std::string app_name = "fft";
    protection::ProtectionMode mode = protection::ProtectionMode::CommGuard;
    Count frames = 100'000;
    Count seed_index = 0;
    sim::ServiceConfig config;
    double mtbe = 128'000.0;
    std::vector<double> per_core_mtbe;
    std::string out_path;

    // Environment defaults first (docs/SERVICE.md); flags override.
    const auto env_count = [&bad](const char *key, Count *out) {
        const char *value = std::getenv(key);
        if (value == nullptr || *value == '\0')
            return 0;
        if (!parseCount(value, out) || *out == 0)
            return bad(std::string("invalid ") + key + " value '" +
                       value + "' (expected a decimal integer >= 1)");
        return 0;
    };
    if (int code = env_count("CG_SERVICE_FRAMES", &frames); code != 0)
        return code;
    if (int code = env_count("CG_SERVICE_SNAPSHOT_FRAMES",
                             &config.snapshotEveryFrames);
        code != 0)
        return code;

    for (const std::string &arg : args) {
        const auto value_of = [&arg](const char *prefix) {
            return arg.substr(std::strlen(prefix));
        };
        if (arg.rfind("--app=", 0) == 0) {
            app_name = value_of("--app=");
        } else if (arg.rfind("--mode=", 0) == 0) {
            const std::string name = value_of("--mode=");
            if (!protection::tryParseProtectionMode(name, &mode))
                return bad("unknown protection mode '" + name +
                           "' (registered modes: " +
                           protection::ProtectionRegistry::instance()
                               .nameList() +
                           ")");
        } else if (arg.rfind("--frames=", 0) == 0) {
            if (!parseCount(value_of("--frames="), &frames) ||
                frames == 0)
                return bad("invalid --frames value");
        } else if (arg.rfind("--seed=", 0) == 0) {
            // sweepOptions() derives the error seed from seed_index + 1
            // in int arithmetic.
            if (!parseCountUpTo(value_of("--seed="), kIntMax - 1,
                                &seed_index))
                return bad("invalid --seed value (expected 0.." +
                           std::to_string(kIntMax - 1) + ")");
        } else if (arg.rfind("--arrival-seed=", 0) == 0) {
            Count arrival = 0;
            if (!parseCount(value_of("--arrival-seed="), &arrival))
                return bad("invalid --arrival-seed value");
            config.arrivalSeed = arrival;
        } else if (arg.rfind("--mtbe=", 0) == 0) {
            if (!parsePositiveDouble(value_of("--mtbe="), &mtbe))
                return bad("invalid --mtbe value");
        } else if (arg.rfind("--per-core-mtbe=", 0) == 0) {
            per_core_mtbe.clear();
            std::istringstream list(value_of("--per-core-mtbe="));
            std::string entry;
            while (std::getline(list, entry, ',')) {
                double value = 0.0;
                if (!parsePositiveDouble(entry, &value))
                    return bad("invalid --per-core-mtbe entry '" +
                               entry + "'");
                per_core_mtbe.push_back(value);
            }
            if (per_core_mtbe.empty())
                return bad("--per-core-mtbe needs at least one entry");
        } else if (arg.rfind("--burst=", 0) == 0) {
            if (!parseCount(value_of("--burst="),
                            &config.meanBurstFrames) ||
                config.meanBurstFrames == 0)
                return bad("invalid --burst value");
        } else if (arg.rfind("--gap=", 0) == 0) {
            if (!parseCount(value_of("--gap="),
                            &config.meanGapSlices) ||
                config.meanGapSlices == 0)
                return bad("invalid --gap value");
        } else if (arg.rfind("--backlog=", 0) == 0) {
            if (!parseCount(value_of("--backlog="),
                            &config.maxBacklogFrames) ||
                config.maxBacklogFrames == 0)
                return bad("invalid --backlog value");
        } else if (arg.rfind("--snapshot-frames=", 0) == 0) {
            if (!parseCount(value_of("--snapshot-frames="),
                            &config.snapshotEveryFrames) ||
                config.snapshotEveryFrames == 0)
                return bad("invalid --snapshot-frames value");
        } else if (arg.rfind("--degrade=", 0) == 0) {
            // --degrade=<frame>:<core>:<factor>
            const std::string spec = value_of("--degrade=");
            const std::size_t first = spec.find(':');
            const std::size_t second =
                first == std::string::npos ? std::string::npos
                                           : spec.find(':', first + 1);
            sim::ServiceEvent event;
            event.kind = sim::ServiceEvent::Kind::MtbeDegrade;
            Count core = 0;
            if (second == std::string::npos ||
                !parseCount(spec.substr(0, first), &event.atFrame) ||
                !parseCountUpTo(
                    spec.substr(first + 1, second - first - 1), kIntMax,
                    &core) ||
                !parsePositiveDouble(spec.substr(second + 1),
                                     &event.factor))
                return bad("invalid --degrade spec '" + spec +
                           "' (expected <frame>:<core>:<factor>, core "
                           "at most " + std::to_string(kIntMax) + ")");
            event.core = static_cast<int>(core);
            config.events.push_back(event);
        } else if (arg.rfind("--remap=", 0) == 0) {
            // --remap=<frame>:<rotation>
            const std::string spec = value_of("--remap=");
            const std::size_t colon = spec.find(':');
            sim::ServiceEvent event;
            event.kind = sim::ServiceEvent::Kind::Remap;
            Count rotation = 0;
            if (colon == std::string::npos ||
                !parseCount(spec.substr(0, colon), &event.atFrame) ||
                !parseCountUpTo(spec.substr(colon + 1), kIntMax,
                                &rotation) ||
                rotation == 0)
                return bad("invalid --remap spec '" + spec +
                           "' (expected <frame>:<rotation>, rotation "
                           "1.." + std::to_string(kIntMax) + ")");
            event.rotation = static_cast<int>(rotation);
            config.events.push_back(event);
        } else if (arg.rfind("--out=", 0) == 0) {
            out_path = value_of("--out=");
            if (out_path.empty())
                return bad("--out needs a path");
        } else {
            return bad("unknown argument '" + arg + "'");
        }
    }

    const apps::App app = apps::makeAppByName(app_name);
    config.app = &app;
    config.load = sim::sweepOptions(mode, true, mtbe,
                                    static_cast<int>(seed_index));
    if (!per_core_mtbe.empty()) {
        if (per_core_mtbe.size() !=
            static_cast<std::size_t>(app.graph.numNodes()))
            return bad("--per-core-mtbe has " +
                       std::to_string(per_core_mtbe.size()) +
                       " entries; app '" + app_name + "' has " +
                       std::to_string(app.graph.numNodes()) +
                       " nodes");
        config.load.perCoreMtbe = per_core_mtbe;
    }
    config.totalFrames = frames;

    sim::ServiceDriver driver(std::move(config));
    const sim::ServiceOutcome outcome = driver.run();

    if (!out_path.empty()) {
        std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
        out << outcome.jsonl;
        if (!out) {
            std::cerr << "cg_bench serve-run: cannot write '"
                      << out_path << "'\n";
            return 1;
        }
    }
    std::cout << outcome.summary.dump() << "\n";
    return outcome.completed ? 0 : 1;
}

/**
 * CG_CACHE_DIR must be usable before any sweep consults it: create it
 * if missing and prove writability with a probe file. A bad directory
 * is a usage error (exit 2), not a mid-sweep warning storm.
 */
int
checkCacheDir()
{
    const char *dir = std::getenv("CG_CACHE_DIR");
    if (dir == nullptr || *dir == '\0')
        return 0;

    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    const std::string probe_path =
        std::string(dir) + "/.cg_probe." + std::to_string(::getpid());
    std::ofstream probe(probe_path);
    probe << "probe\n";
    probe.close();
    if (!probe) {
        std::cerr << "cg_bench: CG_CACHE_DIR '" << dir
                  << "' is not a writable directory\n";
        return usage(std::cerr, 2);
    }
    std::filesystem::remove(probe_path, ec);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    // Tool-specific knobs, registered before the strict env scan.
    sim::allowEnvKey("CG_CACHE_DIR");
    sim::allowEnvKey("CG_SERVICE_FRAMES");
    sim::allowEnvKey("CG_SERVICE_SNAPSHOT_FRAMES");

    // Validate the CG_* environment up front so a typo'd knob is
    // fatal on every subcommand, not just the ones that read it.
    (void)sim::EnvOptions::get();
    if (const int code = checkCacheDir(); code != 0)
        return code;

    const std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage(std::cerr, 2);
    if (args[0] == "--help" || args[0] == "-h" || args[0] == "help")
        return usage(std::cout, 0);

    const std::vector<std::string> rest(args.begin() + 1, args.end());
    if (args[0] == "list")
        return cmdList(rest);
    if (args[0] == "run")
        return cmdRun(rest);
    if (args[0] == "serve-run")
        return cmdServeRun(rest);

    std::cerr << "cg_bench: unknown command '" << args[0] << "'\n";
    return usage(std::cerr, 2);
}
