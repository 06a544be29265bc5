/**
 * @file
 * Structured run/figure export: the one place that turns snapshots and
 * tables into files.
 *
 * Two artifact kinds, both carrying metrics::kSchemaVersion as a
 * "schema_version" field so downstream tooling can reject layouts it
 * does not understand:
 *
 *  - Per-run JSONL: one canonical-JSON line per sweep run (descriptor
 *    fields + the full MetricSnapshot). SweepRunner appends these after
 *    each batch, in submission order, when CG_JSONL=<path> is set —
 *    ordering and content are therefore identical for any CG_JOBS.
 *
 *  - BENCH_<name>.json: a figure program's table, written next to the
 *    run directory through writeBenchJson().
 *
 * JSON is canonical (sorted keys, exact 64-bit counters, non-finite
 * doubles as tagged strings), so equal inputs produce byte-identical
 * files. Both kinds have their schema check here
 * (sim/schema_check.hh).
 */

#ifndef COMMGUARD_SIM_RUN_EXPORT_HH
#define COMMGUARD_SIM_RUN_EXPORT_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/schema_check.hh"
#include "sim/sweep_runner.hh"
#include "sim/table.hh"

namespace commguard::sim
{

/**
 * Write the descriptor members of run and telemetry records into
 * @p record: "app", "protection_mode", "inject_errors", "mtbe", "seed"
 * and "frame_scale".
 */
void putDescriptorMembers(Json &record, const RunDescriptor &descriptor);

/**
 * Check the descriptor members of @p record: all present, and
 * protection_mode a registered mode name (the only one ever read).
 */
SchemaErrors descriptorErrors(const Json &record);

/**
 * The JSONL record of one run: snapshotToJson() of the outcome's
 * snapshot plus the descriptor members. snapshotFromJson()
 * accepts the result unchanged (extra keys are ignored), so a parsed
 * line round-trips to the exact in-memory snapshot.
 */
Json runRecordJson(const RunDescriptor &descriptor,
                   const RunOutcome &outcome);

/**
 * Check one run record: the current schema_version, the descriptor
 * members, and counters and gauges that snapshotFromJson() accepts
 * and that re-serialize to the same canonical text. A forensics
 * section is left to forensicsErrors() (sim/trace_export.hh).
 */
SchemaErrors runRecordErrors(const Json &record);

/** Check CG_JSONL text: runRecordErrors() and forensicsErrors(). */
SchemaErrors checkRunRecords(const std::string &text);

/** checkRunRecords(), requiring forensics (a traced sweep's records). */
SchemaErrors checkForensicRunRecords(const std::string &text);

/** Append @p records to @p path, one canonical-JSON line each. */
void appendJsonl(const std::string &path,
                 const std::vector<Json> &records);

/**
 * Append pre-serialized lines to @p path (sweep hot path: workers
 * dump() their records off the main thread, the barrier just
 * concatenates). Empty strings are skipped; each of the others is
 * canonical-JSON Json::dump() output — either one record, or several
 * records newline-joined without a trailing newline (the telemetry
 * path's per-run chunks). The bytes written equal what the Json
 * overload would write record by record.
 */
void appendJsonl(const std::string &path,
                 const std::vector<std::string> &lines);

/**
 * The BENCH document for @p name:
 * {"schema_version": ..., "bench": name, "data": data}. Exposed
 * separately from writeBenchJson() so the scenario layer and tests
 * can validate documents without touching the filesystem.
 */
Json benchDocument(const std::string &name, const Json &data);

/** Write benchDocument() as BENCH_<name>.json in the working dir. */
void writeBenchJson(const std::string &name, const Json &data);

/**
 * Check a BENCH document's text: the current schema_version, a
 * non-empty bench name, string headers and rows of the header width;
 * a run table (app, mtbe and seed columns) repeats no configuration.
 */
SchemaErrors checkBenchDocument(const std::string &text);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_RUN_EXPORT_HH
