/**
 * @file
 * Schema self-checks for the machine-readable run artifacts.
 *
 * Default mode validates a per-run metrics export file (CG_JSONL
 * output) line by line: every line must parse as one canonical JSON
 * object, carry the current schema_version, the identifying descriptor
 * fields, and a snapshot that metrics::snapshotFromJson() accepts and
 * that re-serializes to the same canonical counters/gauges content.
 * When a record carries a "forensics" section (traced runs) its shape
 * is validated and its conservation_errors array must be empty.
 *
 * Usage:
 *   jsonl_check <runs.jsonl>               validate records
 *   jsonl_check --forensics <runs.jsonl>   …and require a forensics
 *                                          section on every record
 *   jsonl_check --trace <trace.json>...    validate Perfetto trace
 *                                          files (CG_TRACE_EVENTS
 *                                          output): parseable, current
 *                                          schema, and the instant/
 *                                          counter events in the
 *                                          stream tally against the
 *                                          exact event_counts sidecar
 *   jsonl_check --scenarios <list.json>    validate a `cg_bench list
 *                                          --json` catalogue: current
 *                                          schema, non-empty names/
 *                                          descriptions/paper refs/
 *                                          tags, names sorted and
 *                                          unique
 *   jsonl_check --repro <bundle.json>...   validate fuzz repro bundles
 *                                          (docs/FUZZING.md): current
 *                                          schema, kind "fuzz_repro",
 *                                          a parseable embedded case,
 *                                          and a failures string array
 *   jsonl_check --bench <bench.json>...    validate BENCH_<name>.json
 *                                          documents (CG_JSON output):
 *                                          current schema, non-empty
 *                                          bench name, and a data
 *                                          table whose rows all match
 *                                          the header width; tables
 *                                          keyed by run descriptors
 *                                          (app/mtbe/seed columns)
 *                                          must not repeat a
 *                                          configuration — a duplicate
 *                                          row means a sweep merge
 *                                          double-counted a run
 *   jsonl_check --telemetry <runs.jsonl>   validate a telemetry stream
 *                                          (CG_TELEMETRY_OUT output,
 *                                          docs/TELEMETRY.md): current
 *                                          telemetry schema, per-run
 *                                          contiguous records with
 *                                          consecutive sample indices
 *                                          and strictly increasing
 *                                          slices, exactly one final
 *                                          record per run, and — when
 *                                          no samples were dropped —
 *                                          delta sums that reconcile
 *                                          1:1 with the final record's
 *                                          cumulative totals
 *   jsonl_check --service <service.jsonl>  validate a service-mode
 *                                          stream (`cg_bench
 *                                          serve-run` output,
 *                                          docs/SERVICE.md): current
 *                                          service schema on every
 *                                          record, a meta record
 *                                          first, snapshots with
 *                                          consecutive indices,
 *                                          monotone slices and frame
 *                                          counters bounded by
 *                                          total_frames, and exactly
 *                                          one summary record, last,
 *                                          whose counts reconcile with
 *                                          the stream
 *
 * Exit status 0 iff everything validates. Used by the `schema_check`
 * build target and scripts/check.sh.
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.hh"
#include "common/telemetry.hh"
#include "sim/fuzz.hh"
#include "sim/protection.hh"
#include "sim/service_driver.hh"

using namespace commguard;

namespace
{

bool
checkForensics(const Json &forensics, std::size_t number)
{
    const auto fail = [number](const std::string &why) {
        std::fprintf(stderr, "line %zu: forensics: %s\n", number,
                     why.c_str());
        return false;
    };

    if (!forensics.isObject())
        return fail("not an object");
    for (const char *key :
         {"errors_injected", "queue_corruptions", "repaired",
          "unrepaired", "repair_episodes", "eoc_pads",
          "events_dropped"}) {
        const Json *value = forensics.find(key);
        if (value == nullptr || !value->isNumber())
            return fail(std::string("missing numeric field '") + key +
                        "'");
    }
    for (const char *key :
         {"ttr_slices", "items_padded", "items_discarded"}) {
        const Json *dist = forensics.find(key);
        if (dist == nullptr || !dist->isObject())
            return fail(std::string("missing distribution '") + key +
                        "'");
        for (const char *field : {"count", "max", "mean"}) {
            const Json *value = dist->find(field);
            if (value == nullptr || !value->isNumber())
                return fail(std::string(key) + " lacks numeric '" +
                            field + "'");
        }
        const Json *histogram = dist->find("histogram");
        if (histogram == nullptr || !histogram->isArray())
            return fail(std::string(key) + " lacks histogram array");
        for (const Json &bin : histogram->arr()) {
            if (!bin.isArray() || bin.arr().size() != 2)
                return fail(std::string(key) +
                            " histogram bin is not [value, count]");
        }
    }

    const Json *errors = forensics.find("conservation_errors");
    if (errors == nullptr || !errors->isArray())
        return fail("missing conservation_errors array");
    if (!errors->arr().empty())
        return fail("conservation violated: " + errors->dump());
    return true;
}

bool
checkLine(const std::string &line, std::size_t number,
          bool require_forensics)
{
    const auto fail = [number](const std::string &why) {
        std::fprintf(stderr, "line %zu: %s\n", number, why.c_str());
        return false;
    };

    Json record;
    std::string error;
    if (!Json::parse(line, record, &error))
        return fail("parse error: " + error);
    if (!record.isObject())
        return fail("record is not an object");

    for (const char *key : {"app", "protection_mode", "inject_errors",
                            "mtbe", "seed", "frame_scale"}) {
        if (record.find(key) == nullptr)
            return fail(std::string("missing descriptor field '") +
                        key + "'");
    }

    // The mode vocabulary is the protection registry's name set.
    const Json *mode = record.find("protection_mode");
    protection::ProtectionMode parsed_mode{};
    if (!mode->isString() ||
        !protection::tryParseProtectionMode(mode->str(),
                                            &parsed_mode)) {
        return fail("protection_mode " + mode->dump() +
                    " is not a registered mode (registered: " +
                    protection::ProtectionRegistry::instance()
                        .nameList() +
                    ")");
    }

    const Json *version = record.find("schema_version");
    if (version == nullptr)
        return fail("missing schema_version");
    if (version->counter() !=
        static_cast<Count>(metrics::kSchemaVersion))
        return fail("schema_version " + version->dump() +
                    " != " + std::to_string(metrics::kSchemaVersion));

    metrics::MetricSnapshot snapshot;
    try {
        snapshot = metrics::snapshotFromJson(record);
    } catch (const std::exception &e) {
        return fail(std::string("snapshot rejected: ") + e.what());
    }

    // Round-trip stability: re-serializing the parsed snapshot must
    // reproduce the record's counters/gauges bytes. Compare canonical
    // text, not Json values — non-finite gauges parse as their tagged
    // strings but re-encode from doubles.
    Json reencoded = metrics::snapshotToJson(snapshot);
    const Json *counters = record.find("counters");
    const Json *gauges = record.find("gauges");
    if (counters == nullptr || gauges == nullptr)
        return fail("missing counters/gauges");
    if (reencoded.find("counters")->dump() != counters->dump() ||
        reencoded.find("gauges")->dump() != gauges->dump())
        return fail("snapshot does not round-trip canonically");

    const Json *forensics = record.find("forensics");
    if (forensics == nullptr)
        return require_forensics
                   ? fail("missing forensics section "
                          "(was the sweep traced?)")
                   : true;
    return checkForensics(*forensics, number);
}

bool
checkTraceFile(const char *path)
{
    const auto fail = [path](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", path, why.c_str());
        return false;
    };

    std::ifstream in(path);
    if (!in.good())
        return fail("cannot open");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Json doc;
    std::string error;
    if (!Json::parse(buffer.str(), doc, &error))
        return fail("parse error: " + error);
    if (!doc.isObject())
        return fail("document is not an object");

    const Json *events = doc.find("traceEvents");
    if (events == nullptr || !events->isArray())
        return fail("missing traceEvents array");

    const Json *sidecar = doc.find("commguard");
    if (sidecar == nullptr || !sidecar->isObject())
        return fail("missing commguard sidecar object");
    const Json *version = sidecar->find("schema_version");
    if (version == nullptr ||
        version->counter() !=
            static_cast<Count>(metrics::kSchemaVersion))
        return fail("bad or missing commguard.schema_version");
    const Json *counts = sidecar->find("event_counts");
    if (counts == nullptr || !counts->isObject())
        return fail("missing commguard.event_counts object");
    const Json *dropped = sidecar->find("dropped");
    if (dropped == nullptr || !dropped->isNumber())
        return fail("missing commguard.dropped");

    // Tally the stream: instant events per kind name, counter events
    // as queueDepth samples.
    std::map<std::string, Count> tallied;
    Count depth_samples = 0;
    for (const Json &event : events->arr()) {
        if (!event.isObject())
            return fail("traceEvents entry is not an object");
        const Json *ph = event.find("ph");
        const Json *name = event.find("name");
        if (ph == nullptr || name == nullptr)
            return fail("traceEvents entry lacks ph/name");
        if (ph->str() == "i")
            ++tallied[name->str()];
        else if (ph->str() == "C")
            ++depth_samples;
    }

    // Retained records never exceed the exact counts; with no drops
    // they must match exactly.
    const bool exact = dropped->counter() == 0;
    for (const auto &[kind, declared] : counts->obj()) {
        const Count expected = declared.counter();
        const Count seen = kind == "queueDepth" ? depth_samples
                                                : tallied[kind];
        if (seen > expected ||
            (exact && seen != expected)) {
            return fail("event '" + kind + "': stream has " +
                        std::to_string(seen) + ", event_counts says " +
                        std::to_string(expected) +
                        (exact ? " (no drops)" : ""));
        }
    }
    for (const auto &[kind, seen] : tallied) {
        if (counts->find(kind) == nullptr)
            return fail("stream event '" + kind +
                        "' missing from event_counts");
    }
    return true;
}

bool
checkScenarioList(const char *path)
{
    const auto fail = [path](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", path, why.c_str());
        return false;
    };

    std::ifstream in(path);
    if (!in.good())
        return fail("cannot open");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Json doc;
    std::string error;
    if (!Json::parse(buffer.str(), doc, &error))
        return fail("parse error: " + error);
    if (!doc.isObject())
        return fail("document is not an object");

    const Json *version = doc.find("schema_version");
    if (version == nullptr ||
        version->counter() !=
            static_cast<Count>(metrics::kSchemaVersion))
        return fail("bad or missing schema_version");

    const Json *scenarios = doc.find("scenarios");
    if (scenarios == nullptr || !scenarios->isArray())
        return fail("missing scenarios array");
    if (scenarios->arr().empty())
        return fail("scenarios array is empty");

    std::string previous;
    std::size_t index = 0;
    for (const Json &entry : scenarios->arr()) {
        const std::string where =
            "scenario " + std::to_string(index++);
        if (!entry.isObject())
            return fail(where + ": not an object");
        for (const char *key : {"name", "description", "paper_ref"}) {
            const Json *value = entry.find(key);
            if (value == nullptr || !value->isString() ||
                value->str().empty()) {
                return fail(where + ": missing or empty '" + key +
                            "'");
            }
        }
        const Json *tags = entry.find("tags");
        if (tags == nullptr || !tags->isArray() ||
            tags->arr().empty())
            return fail(where + ": missing or empty tags array");
        for (const Json &tag : tags->arr()) {
            if (!tag.isString() || tag.str().empty())
                return fail(where + ": tag is not a non-empty string");
        }
        const std::string &name = entry.find("name")->str();
        if (!previous.empty() && name <= previous)
            return fail("names not sorted/unique: '" + name +
                        "' after '" + previous + "'");
        previous = name;
    }
    std::printf("%zu scenario entr%s checked, catalogue valid\n",
                scenarios->arr().size(),
                scenarios->arr().size() == 1 ? "y" : "ies");
    return true;
}

bool
checkReproBundle(const char *path)
{
    const auto fail = [path](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", path, why.c_str());
        return false;
    };

    std::ifstream in(path);
    if (!in.good())
        return fail("cannot open");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Json doc;
    std::string error;
    if (!Json::parse(buffer.str(), doc, &error))
        return fail("parse error: " + error);

    sim::FuzzCase fuzz_case;
    if (!sim::reproBundleFromJson(doc, fuzz_case, &error))
        return fail("invalid bundle: " + error);

    // The case must survive its own canonical round-trip, so replay
    // tools see exactly what the fuzzer saw.
    const Json canonical = sim::fuzzCaseJson(fuzz_case);
    sim::FuzzCase reparsed;
    if (!sim::fuzzCaseFromJson(canonical, reparsed, &error) ||
        !(reparsed == fuzz_case))
        return fail("case does not round-trip canonically");
    return true;
}

bool
checkBenchDocument(const char *path)
{
    const auto fail = [path](const std::string &why) {
        std::fprintf(stderr, "%s: %s\n", path, why.c_str());
        return false;
    };

    std::ifstream in(path);
    if (!in.good())
        return fail("cannot open");
    std::ostringstream buffer;
    buffer << in.rdbuf();

    Json doc;
    std::string error;
    if (!Json::parse(buffer.str(), doc, &error))
        return fail("parse error: " + error);
    if (!doc.isObject())
        return fail("document is not an object");

    const Json *version = doc.find("schema_version");
    if (version == nullptr ||
        version->counter() !=
            static_cast<Count>(metrics::kSchemaVersion))
        return fail("bad or missing schema_version");

    const Json *bench = doc.find("bench");
    if (bench == nullptr || !bench->isString() ||
        bench->str().empty())
        return fail("missing or empty bench name");

    const Json *data = doc.find("data");
    if (data == nullptr || !data->isObject())
        return fail("missing data object");
    const Json *headers = data->find("headers");
    if (headers == nullptr || !headers->isArray() ||
        headers->arr().empty())
        return fail("data lacks a non-empty headers array");
    const Json *rows = data->find("rows");
    if (rows == nullptr || !rows->isArray())
        return fail("data lacks a rows array");
    const std::size_t width = headers->arr().size();
    std::size_t index = 0;
    for (const Json &row : rows->arr()) {
        const std::string where = "row " + std::to_string(index++);
        if (!row.isArray())
            return fail(where + ": not an array");
        if (row.arr().size() != width) {
            return fail(where + ": " +
                        std::to_string(row.arr().size()) +
                        " cells, headers declare " +
                        std::to_string(width));
        }
    }

    // Duplicate-run detection: a table keyed by run descriptors must
    // name each configuration once — a repeat means a sweep merge
    // double-counted a run (e.g. a cache replay and a fresh execution
    // both landing in the table). Engages only on tables carrying the
    // full descriptor key ("app", "mtbe", "seed"); summary tables
    // keyed otherwise are exempt.
    const std::vector<std::string> descriptor_columns = {
        "app",  "mode", "protection_mode",
        "mtbe", "seed", "frame_scale",
        "inject_errors"};
    std::vector<std::size_t> key_columns;
    bool has_app = false, has_mtbe = false, has_seed = false;
    for (std::size_t h = 0; h < headers->arr().size(); ++h) {
        const Json &header = headers->arr()[h];
        if (!header.isString())
            return fail("header " + std::to_string(h) +
                        " is not a string");
        for (const std::string &column : descriptor_columns) {
            if (header.str() == column) {
                key_columns.push_back(h);
                has_app |= column == "app";
                has_mtbe |= column == "mtbe";
                has_seed |= column == "seed";
            }
        }
    }
    if (has_app && has_mtbe && has_seed) {
        std::set<std::string> seen;
        index = 0;
        for (const Json &row : rows->arr()) {
            std::string key;
            for (std::size_t column : key_columns)
                key += row.arr()[column].dump() + "\x1f";
            if (!seen.insert(key).second)
                return fail("row " + std::to_string(index) +
                            " duplicates an earlier run "
                            "configuration: " +
                            row.dump());
            ++index;
        }
    }
    return true;
}

/**
 * State of the telemetry run whose records are currently streaming
 * past (runs are contiguous in the file, so one suffices).
 */
struct TelemetryRunState
{
    bool active = false;
    Count runIndex = 0;
    Count records = 0;
    Count nextSample = 0;
    Count lastSlice = 0;
    Count lastCycles = 0;
    std::map<std::string, Count> deltaSums;
};

bool
finishTelemetryRun(TelemetryRunState &run, const Json &record,
                   const std::function<bool(const std::string &)> &fail)
{
    // The final record must reconcile: sample accounting, and — when
    // nothing was folded out of the ring — conservation of every
    // counter (sum of streamed deltas == final cumulative totals).
    const Json *taken = record.find("samples_taken");
    const Json *dropped = record.find("samples_dropped");
    const Json *cumulative = record.find("cumulative");
    if (taken == nullptr || !taken->isNumber())
        return fail("final record lacks numeric samples_taken");
    if (dropped == nullptr || !dropped->isNumber())
        return fail("final record lacks numeric samples_dropped");
    if (cumulative == nullptr || !cumulative->isObject())
        return fail("final record lacks cumulative object");
    if (taken->counter() != dropped->counter() + run.records) {
        return fail("samples_taken " + taken->dump() + " != dropped " +
                    dropped->dump() + " + " +
                    std::to_string(run.records) + " streamed records");
    }
    if (dropped->counter() != 0) {
        run.active = false;
        return true;
    }

    for (const auto &[name, total] : cumulative->obj()) {
        if (!total.isNumber())
            return fail("cumulative['" + name + "'] is not a number");
        const auto it = run.deltaSums.find(name);
        const Count summed = it == run.deltaSums.end() ? 0 : it->second;
        if (summed != total.counter()) {
            return fail("conservation violated for '" + name +
                        "': deltas sum to " + std::to_string(summed) +
                        ", cumulative says " + total.dump());
        }
    }
    for (const auto &[name, summed] : run.deltaSums) {
        if (summed != 0 && cumulative->find(name) == nullptr) {
            return fail("counter '" + name + "' has streamed deltas (" +
                        std::to_string(summed) +
                        ") but no cumulative entry");
        }
    }
    run.active = false;
    return true;
}

bool
checkTelemetryLine(const std::string &line, std::size_t number,
                   TelemetryRunState &run, std::set<Count> &finished)
{
    const std::function<bool(const std::string &)> fail =
        [number](const std::string &why) {
            std::fprintf(stderr, "line %zu: %s\n", number,
                         why.c_str());
            return false;
        };

    Json record;
    std::string error;
    if (!Json::parse(line, record, &error))
        return fail("parse error: " + error);
    if (!record.isObject())
        return fail("record is not an object");

    const Json *version = record.find("telemetry_schema_version");
    if (version == nullptr ||
        version->counter() !=
            static_cast<Count>(telemetry::kTelemetrySchemaVersion)) {
        return fail("bad or missing telemetry_schema_version "
                    "(expected " +
                    std::to_string(telemetry::kTelemetrySchemaVersion) +
                    ")");
    }

    for (const char *key : {"app", "protection_mode", "inject_errors",
                            "mtbe", "seed", "frame_scale"}) {
        if (record.find(key) == nullptr)
            return fail(std::string("missing descriptor field '") +
                        key + "'");
    }
    const Json *mode = record.find("protection_mode");
    protection::ProtectionMode parsed_mode{};
    if (!mode->isString() ||
        !protection::tryParseProtectionMode(mode->str(),
                                            &parsed_mode)) {
        return fail("protection_mode " + mode->dump() +
                    " is not a registered mode");
    }

    for (const char *key : {"run_index", "sample", "slice", "cycles"}) {
        const Json *value = record.find(key);
        if (value == nullptr || !value->isNumber())
            return fail(std::string("missing numeric field '") + key +
                        "'");
    }
    const Json *final_flag = record.find("final");
    if (final_flag == nullptr || !final_flag->isBool())
        return fail("missing boolean field 'final'");
    const Json *deltas = record.find("deltas");
    if (deltas == nullptr || !deltas->isObject())
        return fail("missing deltas object");

    const Count run_index = record.find("run_index")->counter();
    const Count sample = record.find("sample")->counter();
    const Count slice = record.find("slice")->counter();
    const Count cycles = record.find("cycles")->counter();

    if (!run.active || run_index != run.runIndex) {
        // A new run begins; the previous one must have been closed by
        // its final record, and run indices must never interleave.
        if (run.active)
            return fail("run " + std::to_string(run.runIndex) +
                        " has no final record before run " +
                        std::to_string(run_index) + " starts");
        if (finished.count(run_index) > 0)
            return fail("run " + std::to_string(run_index) +
                        " reappears after its final record "
                        "(records must be contiguous per run)");
        run = TelemetryRunState{};
        run.active = true;
        run.runIndex = run_index;
        run.nextSample = sample;
    } else {
        if (slice <= run.lastSlice)
            return fail("slice " + std::to_string(slice) +
                        " does not increase over " +
                        std::to_string(run.lastSlice));
        if (cycles < run.lastCycles)
            return fail("cycles " + std::to_string(cycles) +
                        " decreases below " +
                        std::to_string(run.lastCycles));
    }
    if (sample != run.nextSample)
        return fail("sample index " + std::to_string(sample) +
                    " is not consecutive (expected " +
                    std::to_string(run.nextSample) + ")");
    ++run.nextSample;
    ++run.records;
    run.lastSlice = slice;
    run.lastCycles = cycles;

    for (const auto &[name, delta] : deltas->obj()) {
        if (!delta.isNumber())
            return fail("deltas['" + name + "'] is not a number");
        if (delta.counter() == 0)
            return fail("deltas['" + name +
                        "'] is zero (deltas are sparse)");
        run.deltaSums[name] += delta.counter();
    }

    if (final_flag->boolean()) {
        if (!finishTelemetryRun(run, record, fail))
            return false;
        finished.insert(run_index);
    }
    return true;
}

bool
checkTelemetryFile(const char *path)
{
    std::ifstream in(path);
    if (!in.good()) {
        std::fprintf(stderr, "cannot open '%s'\n", path);
        return false;
    }

    TelemetryRunState run;
    std::set<Count> finished;
    std::size_t lines = 0;
    std::size_t bad = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lines;
        if (!checkTelemetryLine(line, lines, run, finished))
            ++bad;
    }
    if (lines == 0) {
        std::fprintf(stderr, "'%s' contains no telemetry records\n",
                     path);
        return false;
    }
    if (run.active) {
        std::fprintf(stderr,
                     "run %llu is missing its final record at EOF\n",
                     static_cast<unsigned long long>(run.runIndex));
        ++bad;
    }
    std::printf("%zu telemetry record%s over %zu run%s checked, "
                "%zu invalid\n",
                lines, lines == 1 ? "" : "s", finished.size(),
                finished.size() == 1 ? "" : "s", bad);
    return bad == 0;
}

/** Streaming state for one `--service` file (one run per file). */
struct ServiceStreamState
{
    bool sawMeta = false;
    bool sawSummary = false;
    Count totalFrames = 0;
    Count nextSnapshot = 0;       //!< Expected next snapshot index.
    Count lastSlice = 0;
    Count lastAdmitted = 0;
    Count eventsSeen = 0;
};

bool
checkServiceLine(const std::string &line, std::size_t number,
                 ServiceStreamState &state)
{
    const auto fail = [number](const std::string &why) {
        std::fprintf(stderr, "line %zu: %s\n", number, why.c_str());
        return false;
    };

    Json record;
    std::string error;
    if (!Json::parse(line, record, &error))
        return fail("parse error: " + error);
    if (!record.isObject())
        return fail("record is not an object");

    const Json *version = record.find("service_schema_version");
    if (version == nullptr ||
        version->counter() !=
            static_cast<Count>(sim::kServiceSchemaVersion)) {
        return fail("bad or missing service_schema_version (expected " +
                    std::to_string(sim::kServiceSchemaVersion) + ")");
    }
    const Json *type = record.find("type");
    if (type == nullptr || !type->isString())
        return fail("missing type string");
    if (state.sawSummary)
        return fail("record after the summary (summary must be last)");

    const auto require_number = [&](const char *key,
                                    const Json **out) {
        const Json *value = record.find(key);
        if (value == nullptr || !value->isNumber())
            return false;
        *out = value;
        return true;
    };

    if (type->str() == "meta") {
        if (state.sawMeta)
            return fail("second meta record");
        if (number != 1)
            return fail("meta record is not the first line");
        const Json *frames = nullptr;
        if (!require_number("total_frames", &frames) ||
            frames->counter() == 0)
            return fail("meta lacks a positive total_frames");
        state.sawMeta = true;
        state.totalFrames = frames->counter();
        return true;
    }
    if (!state.sawMeta)
        return fail("stream does not begin with a meta record");

    if (type->str() == "event") {
        const Json *kind = record.find("kind");
        if (kind == nullptr || !kind->isString() ||
            (kind->str() != "mtbe_degrade" && kind->str() != "remap"))
            return fail("event kind is not mtbe_degrade/remap");
        ++state.eventsSeen;
        return true;
    }

    if (type->str() == "snapshot") {
        const Json *index = nullptr;
        const Json *slice = nullptr;
        const Json *admitted = nullptr;
        const Json *completed = nullptr;
        if (!require_number("index", &index) ||
            !require_number("slice", &slice) ||
            !require_number("frames_admitted", &admitted) ||
            !require_number("frames_completed", &completed))
            return fail("snapshot lacks numeric index/slice/"
                        "frames_admitted/frames_completed");
        for (const char *key : {"deltas", "forensics", "ring"}) {
            const Json *section = record.find(key);
            if (section == nullptr || !section->isObject())
                return fail(std::string("snapshot lacks object '") +
                            key + "'");
        }
        if (index->counter() != state.nextSnapshot)
            return fail("snapshot index " + index->dump() +
                        " is not consecutive (expected " +
                        std::to_string(state.nextSnapshot) + ")");
        if (state.nextSnapshot > 0 &&
            slice->counter() < state.lastSlice)
            return fail("snapshot slice " + slice->dump() +
                        " decreases below " +
                        std::to_string(state.lastSlice));
        if (admitted->counter() < state.lastAdmitted)
            return fail("frames_admitted " + admitted->dump() +
                        " decreases");
        if (admitted->counter() > state.totalFrames)
            return fail("frames_admitted " + admitted->dump() +
                        " exceeds total_frames");
        if (completed->counter() > admitted->counter())
            return fail("frames_completed " + completed->dump() +
                        " exceeds frames_admitted");
        ++state.nextSnapshot;
        state.lastSlice = slice->counter();
        state.lastAdmitted = admitted->counter();
        return true;
    }

    if (type->str() == "summary") {
        const Json *completed_flag = record.find("completed");
        if (completed_flag == nullptr || !completed_flag->isBool())
            return fail("summary lacks boolean completed");
        const Json *frames = nullptr;
        const Json *snapshots = nullptr;
        const Json *events = nullptr;
        if (!require_number("frames_completed", &frames) ||
            !require_number("snapshots", &snapshots) ||
            !require_number("events_applied", &events))
            return fail("summary lacks frames_completed/snapshots/"
                        "events_applied");
        if (completed_flag->boolean() &&
            frames->counter() != state.totalFrames)
            return fail("summary claims completed but "
                        "frames_completed " +
                        frames->dump() + " != total_frames " +
                        std::to_string(state.totalFrames));
        if (snapshots->counter() != state.nextSnapshot)
            return fail("summary snapshots " + snapshots->dump() +
                        " != " + std::to_string(state.nextSnapshot) +
                        " snapshot records in the stream");
        if (events->counter() != state.eventsSeen)
            return fail("summary events_applied " + events->dump() +
                        " != " + std::to_string(state.eventsSeen) +
                        " event records in the stream");
        state.sawSummary = true;
        return true;
    }

    return fail("unknown record type " + type->dump());
}

bool
checkServiceFile(const char *path)
{
    std::ifstream in(path);
    if (!in.good()) {
        std::fprintf(stderr, "cannot open '%s'\n", path);
        return false;
    }

    ServiceStreamState state;
    std::size_t lines = 0;
    std::size_t bad = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lines;
        if (!checkServiceLine(line, lines, state))
            ++bad;
    }
    if (lines == 0) {
        std::fprintf(stderr, "'%s' contains no service records\n",
                     path);
        return false;
    }
    if (!state.sawSummary) {
        std::fprintf(stderr, "'%s' has no summary record\n", path);
        ++bad;
    }
    std::printf("%zu service record%s checked (%llu snapshots, "
                "%llu events), %zu invalid\n",
                lines, lines == 1 ? "" : "s",
                static_cast<unsigned long long>(state.nextSnapshot),
                static_cast<unsigned long long>(state.eventsSeen),
                bad);
    return bad == 0;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: jsonl_check [--forensics] <runs.jsonl>\n"
                 "       jsonl_check --trace <trace.json>...\n"
                 "       jsonl_check --scenarios <list.json>\n"
                 "       jsonl_check --repro <bundle.json>...\n"
                 "       jsonl_check --bench <bench.json>...\n"
                 "       jsonl_check --telemetry <runs.jsonl>\n"
                 "       jsonl_check --service <service.jsonl>\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc >= 2 && std::strcmp(argv[1], "--scenarios") == 0) {
        if (argc != 3)
            return usage();
        return checkScenarioList(argv[2]) ? 0 : 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--repro") == 0) {
        if (argc < 3)
            return usage();
        std::size_t bad = 0;
        for (int i = 2; i < argc; ++i) {
            if (!checkReproBundle(argv[i]))
                ++bad;
        }
        std::printf("%d repro bundle%s checked, %zu invalid\n",
                    argc - 2, argc == 3 ? "" : "s", bad);
        return bad == 0 ? 0 : 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--bench") == 0) {
        if (argc < 3)
            return usage();
        std::size_t bad = 0;
        for (int i = 2; i < argc; ++i) {
            if (!checkBenchDocument(argv[i]))
                ++bad;
        }
        std::printf("%d bench document%s checked, %zu invalid\n",
                    argc - 2, argc == 3 ? "" : "s", bad);
        return bad == 0 ? 0 : 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--telemetry") == 0) {
        if (argc != 3)
            return usage();
        return checkTelemetryFile(argv[2]) ? 0 : 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--service") == 0) {
        if (argc != 3)
            return usage();
        return checkServiceFile(argv[2]) ? 0 : 1;
    }
    if (argc >= 2 && std::strcmp(argv[1], "--trace") == 0) {
        if (argc < 3)
            return usage();
        std::size_t bad = 0;
        for (int i = 2; i < argc; ++i) {
            if (!checkTraceFile(argv[i]))
                ++bad;
        }
        std::printf("%d trace file%s checked, %zu invalid\n", argc - 2,
                    argc == 3 ? "" : "s", bad);
        return bad == 0 ? 0 : 1;
    }

    bool require_forensics = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--forensics") == 0)
            require_forensics = true;
        else if (path == nullptr)
            path = argv[i];
        else
            return usage();
    }
    if (path == nullptr)
        return usage();

    std::ifstream in(path);
    if (!in.good()) {
        std::fprintf(stderr, "cannot open '%s'\n", path);
        return 2;
    }

    std::size_t lines = 0;
    std::size_t bad = 0;
    std::string line;
    while (std::getline(in, line)) {
        ++lines;
        if (!checkLine(line, lines, require_forensics))
            ++bad;
    }

    if (lines == 0) {
        std::fprintf(stderr, "'%s' contains no records\n", path);
        return 1;
    }
    std::printf("%zu record%s checked, %zu invalid\n", lines,
                lines == 1 ? "" : "s", bad);
    return bad == 0 ? 0 : 1;
}
