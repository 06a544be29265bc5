#include "sim/run_export.hh"

#include <fstream>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{

Json
runRecordJson(const RunDescriptor &descriptor,
              const RunOutcome &outcome)
{
    Json record = metrics::snapshotToJson(outcome.snapshot);
    record["app"] = Json(descriptor.app->name);
    record["protection_mode"] =
        Json(protection::protectionModeName(descriptor.options.mode));
    record["inject_errors"] = Json(descriptor.options.injectErrors);
    record["mtbe"] = Json(descriptor.options.mtbe);
    record["seed"] = Json(Count{descriptor.options.seed});
    record["frame_scale"] = Json(descriptor.options.frameScale);

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

} // namespace commguard::sim
