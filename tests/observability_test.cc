/**
 * @file
 * End-to-end tests for the structured run-observability layer: the
 * per-run JSONL record round-trips through text back to the exact
 * in-memory MetricSnapshot, appendJsonl() writes one parseable line
 * per run, and writeBenchJson() stamps every figure artifact with the
 * schema version.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/metrics.hh"
#include "sim/experiment_config.hh"
#include "sim/run_export.hh"

namespace commguard::sim
{
namespace
{

std::vector<std::string>
readLines(const std::string &path)
{
    std::ifstream in(path);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line))
        lines.push_back(line);
    return lines;
}

TEST(RunRecord, CarriesDescriptorAndSchemaVersion)
{
    const apps::App app = apps::makeFftApp(16);
    const ExperimentConfig config =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(256'000)
            .seedIndex(1);
    const RunOutcome outcome = config.run();
    Json record = runRecordJson(config.descriptor(), outcome);

    EXPECT_EQ(record["schema_version"].counter(),
              static_cast<Count>(metrics::kSchemaVersion));
    EXPECT_EQ(record["app"].str(), "fft");
    EXPECT_EQ(record["protection_mode"].str(), "commguard");
    EXPECT_DOUBLE_EQ(record["mtbe"].number(), 256'000.0);
    EXPECT_EQ(record["seed"].counter(), 2u * 1000003u);
}

TEST(RunRecord, RoundTripsToTheExactSnapshot)
{
    const apps::App app = apps::makeFftApp(16);
    const ExperimentConfig config =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(128'000)
            .seedIndex(0);
    const RunOutcome outcome = config.run();

    // registry -> record -> canonical text -> parse -> snapshot.
    const std::string text =
        runRecordJson(config.descriptor(), outcome).dump();
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, parsed, &error)) << error;
    const metrics::MetricSnapshot restored =
        metrics::snapshotFromJson(parsed);
    EXPECT_TRUE(restored == outcome.snapshot);
}

TEST(AppendJsonl, WritesOneLinePerRunInOrder)
{
    const apps::App app = apps::makeFftApp(16);
    std::vector<RunDescriptor> descriptors;
    for (int seed = 0; seed < 3; ++seed) {
        descriptors.push_back(
            ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .mtbe(128'000)
                .seedIndex(seed)
                .descriptor());
    }
    SweepRunner runner(2);
    for (const RunDescriptor &descriptor : descriptors)
        runner.enqueue(descriptor);
    const std::vector<RunOutcome> outcomes = runner.runAll();

    const std::string path = "observability_test.jsonl";
    std::filesystem::remove(path);
    std::vector<Json> records;
    for (std::size_t i = 0; i < outcomes.size(); ++i)
        records.push_back(runRecordJson(descriptors[i], outcomes[i]));
    appendJsonl(path, records);

    const std::vector<std::string> lines = readLines(path);
    ASSERT_EQ(lines.size(), outcomes.size());
    for (std::size_t i = 0; i < lines.size(); ++i) {
        Json parsed;
        std::string error;
        ASSERT_TRUE(Json::parse(lines[i], parsed, &error))
            << "line " << i << ": " << error;
        EXPECT_EQ(parsed["schema_version"].counter(),
                  static_cast<Count>(metrics::kSchemaVersion));
        // Submission order: seed i on line i.
        EXPECT_EQ(parsed["seed"].counter(),
                  static_cast<Count>(i + 1) * 1000003u);
        EXPECT_TRUE(metrics::snapshotFromJson(parsed) ==
                    outcomes[i].snapshot);
    }
    std::filesystem::remove(path);
}

TEST(BenchJson, IsSchemaVersionedAndNamed)
{
    Json data = Json::object();
    data["rows"] = Json(static_cast<Count>(2));
    writeBenchJson("selfcheck_test", data);

    const std::string path = "BENCH_selfcheck_test.json";
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, parsed, &error)) << error;
    EXPECT_EQ(parsed["schema_version"].counter(),
              static_cast<Count>(metrics::kSchemaVersion));
    EXPECT_EQ(parsed["bench"].str(), "selfcheck_test");
    EXPECT_EQ(parsed["data"]["rows"].counter(), 2u);
    in.close();
    std::filesystem::remove(path);
}

} // namespace
} // namespace commguard::sim
