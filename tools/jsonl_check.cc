/**
 * @file
 * Schema check of the exported run artifacts: one mode per artifact
 * kind, each naming the check that lives beside the artifact's writer
 * in src/sim/ (sim/schema_check.hh). `jsonl_check` without arguments
 * lists the modes.
 *
 * Exit status: 0 when every file validates, 1 when a file cannot be
 * read or is invalid, 2 on a usage error. Used by the `schema_check`
 * build target and scripts/check.sh.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "sim/fuzz.hh"
#include "sim/run_export.hh"
#include "sim/scenario.hh"
#include "sim/service_driver.hh"
#include "sim/telemetry_export.hh"
#include "sim/trace_export.hh"

using namespace commguard;

namespace
{

struct Mode
{
    const char *flag;      //!< "": the mode used without a flag.
    const char *artifact;  //!< What each file must be.
    sim::SchemaCheck check;
};

const Mode kModes[] = {
    {"", "CG_JSONL run records (forensics checked where present)",
     sim::checkRunRecords},
    {"--forensics", "run records of a traced sweep, each with forensics",
     sim::checkForensicRunRecords},
    {"--trace", "CG_TRACE_EVENTS Perfetto traces", sim::checkPerfettoTrace},
    {"--scenarios", "`cg_bench list --json` catalogues",
     sim::checkScenarioList},
    {"--repro", "fuzz repro bundles", sim::checkReproBundle},
    {"--bench", "BENCH_<name>.json documents", sim::checkBenchDocument},
    {"--telemetry", "CG_TELEMETRY_OUT streams", sim::checkTelemetryStream},
    {"--service", "`cg_bench serve-run` streams", sim::checkServiceStream},
};

int
usage()
{
    std::fprintf(stderr, "usage: jsonl_check [mode] <file>...\n");
    for (const Mode &mode : kModes)
        std::fprintf(stderr, "  %-11s %s\n", mode.flag, mode.artifact);
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    const Mode *mode = &kModes[0];
    int first = 1;
    if (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
        mode = nullptr;
        for (const Mode &candidate : kModes) {
            if (std::strcmp(argv[1], candidate.flag) == 0)
                mode = &candidate;
        }
        first = 2;
    }
    if (mode == nullptr || first >= argc)
        return usage();

    int invalid = 0;
    for (int i = first; i < argc; ++i) {
        std::ifstream in(argv[i]);
        std::ostringstream text;
        if (in)
            text << in.rdbuf();
        const sim::SchemaErrors errors =
            in ? mode->check(text.str()) : sim::SchemaErrors{"cannot open"};
        for (const std::string &error : errors)
            std::fprintf(stderr, "%s: %s\n", argv[i], error.c_str());
        invalid += errors.empty() ? 0 : 1;
    }
    std::printf("%d file%s checked, %d invalid\n", argc - first,
                argc - first == 1 ? "" : "s", invalid);
    return invalid == 0 ? 0 : 1;
}
