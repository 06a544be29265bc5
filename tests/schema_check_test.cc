/**
 * @file
 * Tests for the artifact schema checks (sim/schema_check.hh), each of
 * which lives beside its artifact's writer:
 *  - the real writers' output passes its check;
 *  - every required member removed, given a wrong kind (a string, or a
 *    negative or fractional count), and every version moved one past
 *    the current one comes back as errors, never as an exception;
 *  - one semantic rule of each format fails under a targeted edit.
 * The member lists below spell each schema independently of the
 * checks, so a check that drops a rule fails here.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "apps/app.hh"
#include "common/json.hh"
#include "sim/experiment_config.hh"
#include "sim/fuzz.hh"
#include "sim/run_export.hh"
#include "sim/scenario.hh"
#include "sim/service_driver.hh"
#include "sim/table.hh"
#include "sim/telemetry_export.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{
namespace
{

/** Every artifact kind, built once with its real writer. */
struct Artifacts
{
    std::string runRecord;      //!< runRecordJson() of a traced run.
    std::string untracedRecord; //!< The same run's record, no trace.
    std::string bench;          //!< benchDocument() of a run table.
    std::string trace;          //!< perfettoTraceJson().
    std::string telemetry;      //!< telemetryLines().
    std::string service;        //!< ServiceDriver::run().jsonl.
    std::string scenarios;      //!< scenarioListJson().
    std::string repro;          //!< reproBundleJson().
};

const Artifacts &
artifacts()
{
    static const Artifacts built = [] {
        static const apps::App app = apps::makeFftApp(2);
        MachineConfig machine;
        machine.sliceInstructions = 2'000;
        const RunDescriptor descriptor = ExperimentConfig::app(app)
                                             .mode("commguard")
                                             .mtbe(128'000)
                                             .machine(machine)
                                             .traceEvents(true)
                                             .telemetry(16)
                                             .descriptor();
        RunOutcome outcome = runOnce(app, descriptor.options);

        Artifacts a;
        a.runRecord = runRecordJson(descriptor, outcome).dump() + "\n";
        a.trace = perfettoTraceJson(*outcome.eventTrace).dump() + "\n";
        a.telemetry = telemetryLines(descriptor, outcome, 0) + "\n";
        outcome.eventTrace = nullptr;
        a.untracedRecord =
            runRecordJson(descriptor, outcome).dump() + "\n";

        Table table({"app", "mode", "mtbe", "seed", "quality_db"});
        table.addRow({"fft", "commguard", "128000", "1", "31.2"});
        table.addRow({"fft", "commguard", "128000", "2", "29.8"});
        a.bench = benchDocument("schema_test", table.toJson()).dump();

        ServiceConfig config;
        config.app = &app;
        config.load = sweepOptions(protection::ProtectionMode::CommGuard,
                                   true, 64'000.0, 0);
        config.totalFrames = 300;
        config.meanBurstFrames = 16;
        config.meanGapSlices = 4;
        config.maxBacklogFrames = 64;
        config.snapshotEveryFrames = 100;
        config.events.push_back(
            {ServiceEvent::Kind::MtbeDegrade, 100, 1, 8.0, 0});
        a.service = ServiceDriver(config).run().jsonl;

        a.scenarios = scenarioListJson().dump();
        a.repro =
            reproBundleJson(randomFuzzCase(3), {"schema: run 0: bad"})
                .dump();
        return a;
    }();
    return built;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

/** 0-based index of the first line whose record satisfies @p match. */
std::size_t
lineWhere(const std::string &text,
          const std::function<bool(const Json &)> &match)
{
    const std::vector<std::string> lines = splitLines(text);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Json record;
        if (Json::parse(lines[i], record) && match(record))
            return i;
    }
    ADD_FAILURE() << "no matching line";
    return 0;
}

/** @p text with @p edit applied to the record on line @p line. */
std::string
editLine(const std::string &text, std::size_t line,
         const std::function<void(Json &)> &edit)
{
    std::vector<std::string> lines = splitLines(text);
    Json record;
    EXPECT_TRUE(Json::parse(lines.at(line), record));
    edit(record);
    lines[line] = record.dump();
    std::string edited;
    for (const std::string &l : lines)
        edited += l + "\n";
    return edited;
}

/** A member path: object keys, or array indices written as digits. */
using Path = std::vector<std::string>;

std::string
joined(const Path &path)
{
    std::string text;
    for (const std::string &step : path)
        text += (text.empty() ? "" : ".") + step;
    return text;
}

/** The object holding @p path's last step. */
Json &
holder(Json &root, const Path &path)
{
    Json *node = &root;
    for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        if (node->isArray())
            node = &node->arr().at(std::stoul(path[i]));
        else
            node = &node->obj().at(path[i]);
    }
    return *node;
}

/** One member a schema requires (or, unless required, allows). */
struct Member
{
    Path path;
    JsonKind kind;
    bool required = true;
};

/** Values of another kind than @p kind (none for Any). */
std::vector<Json>
wrongValues(JsonKind kind)
{
    switch (kind) {
    case JsonKind::Count: return {Json("7"), Json(-1), Json(1.5)};
    case JsonKind::String: return {Json(1)};
    case JsonKind::Any: return {};
    default: return {Json("x")};
    }
}

/** @p check on @p text must return errors without throwing. */
void
expectRejected(SchemaCheck check, const std::string &text,
               const std::string &what)
{
    SchemaErrors errors;
    EXPECT_NO_THROW(errors = check(text)) << what;
    EXPECT_FALSE(errors.empty()) << what << " was accepted";
}

/**
 * The member rules of one record of an artifact: @p text passes
 * @p check; each member of @p members removed (when required) and set
 * to each wrong value is rejected, and so is each of @p versions one
 * past its current value.
 */
void
expectMemberRules(SchemaCheck check, const std::string &text,
                  std::size_t line, const std::vector<Member> &members,
                  const std::vector<Path> &versions)
{
    EXPECT_TRUE(check(text).empty()) << "line " << line;
    for (const Member &member : members) {
        const std::string key = member.path.back();
        const std::string where =
            "line " + std::to_string(line) + " " + joined(member.path);
        if (member.required) {
            expectRejected(check,
                           editLine(text, line,
                                    [&](Json &record) {
                                        holder(record, member.path)
                                            .obj()
                                            .erase(key);
                                    }),
                           where + " removed");
        }
        for (const Json &wrong : wrongValues(member.kind)) {
            expectRejected(check,
                           editLine(text, line,
                                    [&](Json &record) {
                                        holder(record, member.path)[key] =
                                            wrong;
                                    }),
                           where + " = " + wrong.dump());
        }
    }
    for (const Path &version : versions) {
        expectRejected(
            check,
            editLine(text, line,
                     [&](Json &record) {
                         Json &value = holder(record, version)[version.back()];
                         value = Json(value.counter() + 1);
                     }),
            joined(version) + " + 1");
    }
}

const std::vector<Member> kDescriptorMembers = {
    {{"app"}, JsonKind::Any},          {{"protection_mode"}, JsonKind::String},
    {{"inject_errors"}, JsonKind::Any}, {{"mtbe"}, JsonKind::Any},
    {{"seed"}, JsonKind::Any},         {{"frame_scale"}, JsonKind::Any},
};

std::vector<Member>
withDescriptor(std::vector<Member> members)
{
    members.insert(members.end(), kDescriptorMembers.begin(),
                   kDescriptorMembers.end());
    return members;
}

std::vector<Member>
forensicsMembers()
{
    std::vector<Member> members;
    for (const char *key :
         {"errors_injected", "queue_corruptions", "repaired", "unrepaired",
          "repair_episodes", "eoc_pads", "events_dropped"})
        members.push_back({{"forensics", key}, JsonKind::Count});
    members.push_back({{"forensics", "conservation_errors"},
                       JsonKind::Array});
    for (const char *key :
         {"ttr_slices", "items_padded", "items_discarded"}) {
        members.push_back({{"forensics", key}, JsonKind::Object});
        members.push_back({{"forensics", key, "count"}, JsonKind::Count});
        members.push_back({{"forensics", key, "max"}, JsonKind::Count});
        members.push_back({{"forensics", key, "mean"}, JsonKind::Number});
        members.push_back({{"forensics", key, "histogram"},
                           JsonKind::Array});
    }
    return members;
}

TEST(SchemaCheck, RunRecordMembers)
{
    const std::string &text = artifacts().runRecord;
    Json record;
    ASSERT_TRUE(Json::parse(text, record));
    const std::string counter = record.find("counters")->obj().begin()->first;
    std::vector<Member> members = withDescriptor(forensicsMembers());
    members.push_back({{"schema_version"}, JsonKind::Count});
    members.push_back({{"counters"}, JsonKind::Object});
    members.push_back({{"gauges"}, JsonKind::Object});
    members.push_back({{"counters", counter}, JsonKind::Count, false});
    expectMemberRules(checkRunRecords, text, 0, members,
                      {{"schema_version"}});

    members.push_back({{"forensics"}, JsonKind::Object});
    expectMemberRules(checkForensicRunRecords, text, 0, members,
                      {{"schema_version"}});
}

TEST(SchemaCheck, ForensicsSectionIsOptionalUnlessRequired)
{
    const std::string &text = artifacts().untracedRecord;
    EXPECT_TRUE(checkRunRecords(text).empty());
    expectRejected(checkForensicRunRecords, text, "untraced record");

    // The fuzzer's record-level check never looks at forensics.
    Json record;
    ASSERT_TRUE(Json::parse(artifacts().runRecord, record));
    record["forensics"]["conservation_errors"].push(Json("mismatch"));
    EXPECT_TRUE(runRecordErrors(record).empty());
    expectRejected(checkRunRecords, record.dump(),
                   "non-empty conservation_errors");
}

TEST(SchemaCheck, RunRecordRejectsUnregisteredMode)
{
    expectRejected(checkRunRecords,
                   editLine(artifacts().runRecord, 0,
                            [](Json &record) {
                                record["protection_mode"] = Json("turbo");
                            }),
                   "protection_mode turbo");
}

TEST(SchemaCheck, JsonlRejectsEmptyAndUnparseableLines)
{
    expectRejected(checkRunRecords, "", "empty text");
    expectRejected(checkRunRecords, artifacts().runRecord + "\n",
                   "blank line");
    expectRejected(checkRunRecords, "[1]\n", "array record");
}

TEST(SchemaCheck, BenchDocumentMembers)
{
    expectMemberRules(checkBenchDocument, artifacts().bench, 0,
                      {{{"schema_version"}, JsonKind::Count},
                       {{"bench"}, JsonKind::String},
                       {{"data"}, JsonKind::Object},
                       {{"data", "headers"}, JsonKind::Array},
                       {{"data", "rows"}, JsonKind::Array}},
                      {{"schema_version"}});
}

TEST(SchemaCheck, BenchDocumentRejectsDuplicateRun)
{
    expectRejected(checkBenchDocument,
                   editLine(artifacts().bench, 0,
                            [](Json &document) {
                                Json &rows = document["data"]["rows"];
                                rows.push(Json(rows.arr().front()));
                            }),
                   "duplicated row");
}

TEST(SchemaCheck, PerfettoTraceMembers)
{
    const std::string &text = artifacts().trace;
    Json document;
    ASSERT_TRUE(Json::parse(text, document));
    const std::string kind = document.find("commguard")
                                 ->find("event_counts")
                                 ->obj()
                                 .begin()
                                 ->first;
    std::vector<Member> members = {
        {{"traceEvents"}, JsonKind::Array},
        {{"commguard"}, JsonKind::Object},
        {{"commguard", "schema_version"}, JsonKind::Count},
        {{"commguard", "event_counts"}, JsonKind::Object},
        {{"commguard", "dropped"}, JsonKind::Count},
        {{"commguard", "event_counts", kind}, JsonKind::Count, false},
    };
    // One event per phase: metadata and counter events need a name,
    // instant events a string name (it keys the tally).
    const Json::Array &events = document.find("traceEvents")->arr();
    for (const char *ph : {"M", "i", "C"}) {
        std::size_t index = 0;
        while (index < events.size() &&
               events[index].find("ph")->str() != ph)
            ++index;
        ASSERT_LT(index, events.size()) << ph;
        const std::string at = std::to_string(index);
        members.push_back({{"traceEvents", at, "ph"}, JsonKind::String});
        members.push_back({{"traceEvents", at, "name"},
                           std::string(ph) == "i" ? JsonKind::String
                                                  : JsonKind::Any});
    }
    expectMemberRules(checkPerfettoTrace, text, 0, members,
                      {{"commguard", "schema_version"}});
}

TEST(SchemaCheck, PerfettoTraceRejectsTallyMismatch)
{
    // The stream holds queuePush instants, so a zero count undercounts
    // them whether or not records were dropped.
    expectRejected(checkPerfettoTrace,
                   editLine(artifacts().trace, 0,
                            [](Json &document) {
                                document["commguard"]["event_counts"]
                                        ["queuePush"] = Json(Count{0});
                            }),
                   "event_counts.queuePush = 0");
}

TEST(SchemaCheck, TelemetryStreamMembers)
{
    const std::string &text = artifacts().telemetry;
    const std::size_t final_line =
        lineWhere(text, [](const Json &record) {
            return record.find("final")->boolean();
        });
    expectMemberRules(checkTelemetryStream, text, final_line,
                      withDescriptor({
                          {{"telemetry_schema_version"}, JsonKind::Count},
                          {{"run_index"}, JsonKind::Count},
                          {{"sample"}, JsonKind::Count},
                          {{"slice"}, JsonKind::Count},
                          {{"cycles"}, JsonKind::Count},
                          {{"final"}, JsonKind::Bool},
                          {{"deltas"}, JsonKind::Object},
                          {{"samples_taken"}, JsonKind::Count},
                          {{"samples_dropped"}, JsonKind::Count},
                          {{"cumulative"}, JsonKind::Object},
                      }),
                      {{"telemetry_schema_version"}});
}

TEST(SchemaCheck, TelemetryStreamRejectsUnreconciledCumulative)
{
    const std::string &text = artifacts().telemetry;
    const std::size_t final_line =
        lineWhere(text, [](const Json &record) {
            return record.find("final")->boolean();
        });
    expectRejected(checkTelemetryStream,
                   editLine(text, final_line,
                            [](Json &record) {
                                Json &total = record["cumulative"].obj()
                                                  .begin()
                                                  ->second;
                                total = Json(total.counter() + 1);
                            }),
                   "cumulative + 1");
}

TEST(SchemaCheck, ServiceStreamMembers)
{
    const std::string &text = artifacts().service;
    const std::vector<Member> common = {
        {{"service_schema_version"}, JsonKind::Count},
        {{"type"}, JsonKind::String},
    };
    const std::vector<std::pair<const char *, std::vector<Member>>> types = {
        {"meta", {{{"total_frames"}, JsonKind::Count}}},
        {"event", {{{"kind"}, JsonKind::String}}},
        {"snapshot",
         {{{"index"}, JsonKind::Count},
          {{"slice"}, JsonKind::Count},
          {{"frames_admitted"}, JsonKind::Count},
          {{"frames_completed"}, JsonKind::Count},
          {{"errors_injected"}, JsonKind::Count},
          {{"repairs"}, JsonKind::Count},
          {{"deltas"}, JsonKind::Object}}},
        {"summary",
         {{{"completed"}, JsonKind::Bool},
          {{"frames_completed"}, JsonKind::Count},
          {{"snapshots"}, JsonKind::Count},
          {{"events_applied"}, JsonKind::Count},
          {{"errors_injected"}, JsonKind::Count},
          {{"repairs"}, JsonKind::Count}}},
    };
    for (const auto &[type, members] : types) {
        const std::size_t line = lineWhere(text, [&](const Json &record) {
            return record.find("type")->str() == type;
        });
        std::vector<Member> all = common;
        all.insert(all.end(), members.begin(), members.end());
        expectMemberRules(checkServiceStream, text, line, all,
                          {{"service_schema_version"}});
    }
}

TEST(SchemaCheck, ServiceStreamRejectsNonConsecutiveSnapshots)
{
    const std::string &text = artifacts().service;
    const std::size_t line = lineWhere(text, [](const Json &record) {
        return record.find("type")->str() == "snapshot";
    });
    expectRejected(checkServiceStream,
                   editLine(text, line,
                            [](Json &record) {
                                record["index"] = Json(Count{5});
                            }),
                   "snapshot index 5");
}

TEST(SchemaCheck, ScenarioListMembers)
{
    expectMemberRules(checkScenarioList, artifacts().scenarios, 0,
                      {{{"schema_version"}, JsonKind::Count},
                       {{"scenarios"}, JsonKind::Array},
                       {{"scenarios", "0", "name"}, JsonKind::String},
                       {{"scenarios", "0", "description"}, JsonKind::String},
                       {{"scenarios", "0", "paper_ref"}, JsonKind::String},
                       {{"scenarios", "0", "tags"}, JsonKind::Array}},
                      {{"schema_version"}});
}

TEST(SchemaCheck, ScenarioListRejectsUnsortedNames)
{
    expectRejected(checkScenarioList,
                   editLine(artifacts().scenarios, 0,
                            [](Json &document) {
                                Json::Array &entries =
                                    document["scenarios"].arr();
                                ASSERT_GE(entries.size(), 2u);
                                std::swap(entries[0], entries[1]);
                            }),
                   "swapped first two scenarios");
}

TEST(SchemaCheck, ReproBundleMembers)
{
    std::vector<Member> members = {
        {{"schema_version"}, JsonKind::Count},
        {{"kind"}, JsonKind::String},
        {{"failures"}, JsonKind::Array},
        {{"case"}, JsonKind::Object},
        {{"case", "mtbe"}, JsonKind::Number},
        {{"case", "allow_split_join"}, JsonKind::Bool},
        {{"case", "inject_errors"}, JsonKind::Bool},
        {{"case", "mode"}, JsonKind::String},
        {{"case", "break_invariant"}, JsonKind::String},
    };
    for (const char *key :
         {"case_seed", "graph_seed", "stages", "max_granularity",
          "frame_scale", "queue_capacity_words", "iterations", "jobs",
          "sweep_seeds"})
        members.push_back({{"case", key}, JsonKind::Count});
    expectMemberRules(checkReproBundle, artifacts().repro, 0, members,
                      {{"schema_version"}});
}

TEST(SchemaCheck, ReproBundleRejectsAxesThatOverflowTheirField)
{
    // 2^32 + 2 jobs would replay as 2 jobs: a different case.
    expectRejected(checkReproBundle,
                   editLine(artifacts().repro, 0,
                            [](Json &bundle) {
                                bundle["case"]["jobs"] =
                                    Json(Count{(1ull << 32) + 2});
                            }),
                   "case.jobs = 2^32 + 2");
}

} // namespace
} // namespace commguard::sim
