#include "sim/run_export.hh"

#include <fstream>
#include <set>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{

namespace
{

/** The descriptor members, in putDescriptorMembers()' value order. */
constexpr SchemaMember kDescriptorMembers[] = {
    {"app", JsonKind::Any},
    {"protection_mode", JsonKind::String},
    {"inject_errors", JsonKind::Any},
    {"mtbe", JsonKind::Any},
    {"seed", JsonKind::Any},
    {"frame_scale", JsonKind::Any},
};

/** checkRunRecords() with the forensics section required or not. */
SchemaErrors
checkRunRecordLines(const std::string &text, bool require_forensics)
{
    return checkJsonlLines(text, [&](const Json &record, std::size_t) {
        SchemaErrors errors = runRecordErrors(record);
        if (const Json *forensics = record.find("forensics"))
            appendErrors(errors, "forensics", forensicsErrors(*forensics));
        else if (require_forensics)
            errors.push_back(
                "missing forensics section (was the sweep traced?)");
        return errors;
    });
}

} // namespace

void
putDescriptorMembers(Json &record, const RunDescriptor &descriptor)
{
    const streamit::LoadOptions &options = descriptor.options;
    Json values[] = {
        Json(descriptor.app->name),
        Json(protection::protectionModeName(options.mode)),
        Json(options.injectErrors),
        Json(options.mtbe),
        Json(Count{options.seed}),
        Json(options.frameScale),
    };
    static_assert(std::size(values) == std::size(kDescriptorMembers));
    for (std::size_t i = 0; i < std::size(values); ++i)
        record[kDescriptorMembers[i].key] = std::move(values[i]);
}

SchemaErrors
descriptorErrors(const Json &record)
{
    SchemaErrors errors;
    const auto members = requireMembers(record, kDescriptorMembers, errors);
    if (!members)
        return errors;
    const auto &[app, mode, inject_errors, mtbe, seed, frame_scale] =
        *members;
    // The mode vocabulary is the protection registry's name set.
    protection::ProtectionMode parsed{};
    if (!protection::tryParseProtectionMode(mode->str(), &parsed)) {
        errors.push_back(
            "protection_mode " + mode->dump() +
            " is not a registered mode (registered: " +
            protection::ProtectionRegistry::instance().nameList() + ")");
    }
    return errors;
}

Json
runRecordJson(const RunDescriptor &descriptor,
              const RunOutcome &outcome)
{
    Json record = metrics::snapshotToJson(outcome.snapshot);
    putDescriptorMembers(record, descriptor);

    // Traced runs carry their realignment forensics and the event/
    // counter conservation verdict inline. snapshotFromJson() ignores
    // unknown keys, so untraced consumers are unaffected.
    if (outcome.eventTrace != nullptr) {
        Json forensics = forensicsJson(*outcome.eventTrace);
        Json errors = Json::array();
        for (const std::string &message : traceConservationErrors(
                 *outcome.eventTrace, outcome.snapshot))
            errors.push(message);
        forensics["conservation_errors"] = errors;
        record["forensics"] = forensics;
    }
    return record;
}

SchemaErrors
runRecordErrors(const Json &record)
{
    static constexpr SchemaMember kSnapshotMembers[] = {
        {"counters", JsonKind::Object},
        {"gauges", JsonKind::Object},
    };
    SchemaErrors errors = descriptorErrors(record);
    checkVersion(record, "schema_version", metrics::kSchemaVersion,
                 errors);
    const auto members = requireMembers(record, kSnapshotMembers, errors);
    if (!members)
        return errors;
    const auto &[counters, gauges] = *members;
    checkCountMembers(*counters, errors);
    if (!errors.empty())
        return errors;

    metrics::MetricSnapshot snapshot;
    try {
        snapshot = metrics::snapshotFromJson(record);
    } catch (const std::exception &e) {
        return {std::string("snapshot rejected: ") + e.what()};
    }

    // Round-trip stability: re-serializing the parsed snapshot must
    // reproduce the record's counters/gauges bytes. Compare canonical
    // text, not Json values: non-finite gauges parse as their tagged
    // strings but re-encode from doubles.
    const Json reencoded = metrics::snapshotToJson(snapshot);
    if (reencoded.find("counters")->dump() != counters->dump() ||
        reencoded.find("gauges")->dump() != gauges->dump())
        errors.push_back("snapshot does not round-trip canonically");
    return errors;
}

SchemaErrors
checkRunRecords(const std::string &text)
{
    return checkRunRecordLines(text, false);
}

SchemaErrors
checkForensicRunRecords(const std::string &text)
{
    return checkRunRecordLines(text, true);
}

void
appendJsonl(const std::string &path, const std::vector<Json> &records)
{
    std::ofstream out(path, std::ios::app);
    if (!out) {
        warn("run_export: cannot open '" + path +
             "' for appending");
        return;
    }
    for (const Json &record : records) {
        record.write(out);
        out << '\n';
    }
}

void
appendJsonl(const std::string &path,
            const std::vector<std::string> &lines)
{
    std::ofstream out(path, std::ios::app);
    if (!out) {
        warn("run_export: cannot open '" + path +
             "' for appending");
        return;
    }
    for (const std::string &line : lines) {
        if (line.empty())
            continue;
        out << line << '\n';
    }
}

Json
benchDocument(const std::string &name, const Json &data)
{
    Json document = Json::object();
    document["schema_version"] = Json(metrics::kSchemaVersion);
    document["bench"] = Json(name);
    document["data"] = data;
    return document;
}

void
writeBenchJson(const std::string &name, const Json &data)
{
    const Json document = benchDocument(name, data);
    const std::string path = "BENCH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        warn("run_export: cannot write '" + path + "'");
        return;
    }
    document.write(out);
    out << '\n';
}

SchemaErrors
checkBenchDocument(const std::string &text)
{
    static constexpr SchemaMember kDocumentMembers[] = {
        {"bench", JsonKind::String},
        {"data", JsonKind::Object},
    };
    static constexpr SchemaMember kTableMembers[] = {
        {"headers", JsonKind::Array},
        {"rows", JsonKind::Array},
    };
    SchemaErrors errors;
    const std::optional<Json> document = parseObject(text, errors);
    if (!document)
        return errors;
    checkVersion(*document, "schema_version", metrics::kSchemaVersion,
                 errors);
    const auto members =
        requireMembers(*document, kDocumentMembers, errors);
    if (!members)
        return errors;
    const auto &[bench, data] = *members;
    const auto table = requireMembers(*data, kTableMembers, errors);
    if (!table)
        return errors;
    const auto &[headers, rows] = *table;
    if (bench->str().empty())
        errors.push_back("empty bench name");
    if (headers->arr().empty())
        errors.push_back("empty headers array");

    // Columns naming a descriptor member (tables call protection_mode
    // "mode") key the rows of a run table.
    std::vector<std::size_t> key_columns;
    std::set<std::string> key_names;
    for (std::size_t h = 0; h < headers->arr().size(); ++h) {
        const Json &header = headers->arr()[h];
        if (!header.isString()) {
            errors.push_back("header " + std::to_string(h) +
                             " is not a string");
            continue;
        }
        bool key = header.str() == "mode";
        for (const SchemaMember &member : kDescriptorMembers)
            key |= header.str() == member.key;
        if (key) {
            key_columns.push_back(h);
            key_names.insert(header.str());
        }
    }
    const std::size_t width = headers->arr().size();
    for (std::size_t r = 0; r < rows->arr().size(); ++r) {
        const Json &row = rows->arr()[r];
        if (!row.isArray() || row.arr().size() != width)
            errors.push_back("row " + std::to_string(r) +
                             " is not an array of " +
                             std::to_string(width) + " cells");
    }

    // Only tables carrying the full descriptor key (app, mtbe, seed)
    // are run tables; summary tables keyed otherwise are exempt. A run
    // table names each configuration once: a repeat means a sweep
    // merge double-counted a run.
    if (!errors.empty() || key_names.count("app") == 0 ||
        key_names.count("mtbe") == 0 || key_names.count("seed") == 0)
        return errors;
    std::set<std::string> seen;
    for (std::size_t r = 0; r < rows->arr().size(); ++r) {
        std::string key;
        for (std::size_t column : key_columns)
            key += rows->arr()[r].arr()[column].dump() + "\x1f";
        if (!seen.insert(key).second)
            errors.push_back("row " + std::to_string(r) +
                             " duplicates an earlier run "
                             "configuration: " +
                             rows->arr()[r].dump());
    }
    return errors;
}

} // namespace commguard::sim
