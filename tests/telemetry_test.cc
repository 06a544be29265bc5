/**
 * @file
 * Tests for the in-run telemetry subsystem (docs/TELEMETRY.md): the
 * recorder's bounded delta-ring and its conservation identity, the
 * final-sample contract the validators rely on, and — critically —
 * that the serialized telemetry stream is bitwise identical whatever
 * the sweep's job count.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/json.hh"
#include "common/telemetry.hh"
#include "sim/experiment_config.hh"
#include "sim/sweep_runner.hh"
#include "sim/telemetry_export.hh"

namespace commguard
{
namespace
{

/** ExperimentConfig::app() keeps a pointer, so the app must outlive
 *  every descriptor built from it. */
const apps::App &
fftApp()
{
    static const apps::App app = apps::makeFftApp(16);
    return app;
}

/** Small scheduling slices so even the small test app spans many
 *  scheduler rounds — the sampling clock telemetry runs on. */
MachineConfig
fineGrainedMachine(Count slice_instructions)
{
    MachineConfig machine;
    machine.sliceInstructions = slice_instructions;
    return machine;
}

/** The canonical small sweep every determinism check replays. */
std::vector<sim::RunDescriptor>
makeBatch()
{
    std::vector<sim::RunDescriptor> batch;
    for (int seed = 0; seed < 3; ++seed)
        batch.push_back(sim::ExperimentConfig::app(fftApp())
                            .mode("commguard")
                            .mtbe(128'000)
                            .seedIndex(seed)
                            .machine(fineGrainedMachine(2'000))
                            .telemetry(16)
                            .descriptor());
    return batch;
}

/** The telemetry stream bytes of makeBatch() under @p jobs workers. */
std::string
streamBytes(unsigned jobs)
{
    sim::SweepRunner runner(jobs);
    const std::vector<sim::RunDescriptor> batch = makeBatch();
    for (const sim::RunDescriptor &descriptor : batch)
        runner.enqueue(descriptor);
    const std::vector<sim::RunOutcome> outcomes = runner.runAll();
    std::string bytes;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        bytes += sim::telemetryLines(batch[i], outcomes[i],
                                     static_cast<Count>(i));
        bytes += '\n';
    }
    return bytes;
}

TEST(Telemetry, StreamBytesAreIdenticalAcrossJobCounts)
{
    const std::string one = streamBytes(1);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, streamBytes(2));
    EXPECT_EQ(one, streamBytes(8));
}

TEST(Telemetry, RingIsBoundedAndCountsFoldedSamples)
{
    // An every-round cadence against a tiny ring: most samples must be
    // folded into the base, the deque must never exceed its capacity,
    // and the taken/dropped/retained arithmetic must close.
    const sim::RunOutcome outcome =
        sim::ExperimentConfig::app(fftApp())
            .mode("commguard")
            .noErrors()
            .machine(fineGrainedMachine(500))
            .telemetry(1, 8)
            .run();
    ASSERT_NE(outcome.telemetry, nullptr);
    const telemetry::TelemetryRecorder &recorder = *outcome.telemetry;
    EXPECT_LE(recorder.samples().size(), 8u);
    EXPECT_GT(recorder.droppedSamples(), 0u);
    EXPECT_EQ(recorder.samplesTaken(),
              recorder.droppedSamples() + recorder.samples().size());
}

TEST(Telemetry, CumulativeReconcilesWithTheRunSnapshot)
{
    // Conservation: even with ring overflow, base + retained deltas
    // must equal the run's final MetricSnapshot for every sampled
    // counter. This is the identity jsonl_check --telemetry and the
    // soak scenario gate on.
    const sim::RunOutcome outcome =
        sim::ExperimentConfig::app(fftApp())
            .mode("commguard")
            .mtbe(128'000)
            .seedIndex(0)
            .machine(fineGrainedMachine(500))
            .telemetry(2, 16)
            .run();
    ASSERT_NE(outcome.telemetry, nullptr);
    const telemetry::TelemetryRecorder &recorder = *outcome.telemetry;
    EXPECT_GT(recorder.droppedSamples(), 0u);
    const std::vector<Count> totals = recorder.cumulative();
    const std::vector<std::string> &names = recorder.names();
    ASSERT_FALSE(names.empty());
    ASSERT_EQ(totals.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(totals[i], outcome.snapshot.get(names[i]))
            << names[i];
}

TEST(Telemetry, ExactlyOneFinalSampleAndStrictlyIncreasingSlices)
{
    const sim::RunOutcome outcome =
        sim::ExperimentConfig::app(fftApp())
            .mode("commguard")
            .noErrors()
            .machine(fineGrainedMachine(2'000))
            .telemetry(16)
            .run();
    ASSERT_NE(outcome.telemetry, nullptr);
    const telemetry::TelemetryRecorder &recorder = *outcome.telemetry;
    ASSERT_GT(recorder.samples().size(), 1u);
    Count finals = 0;
    Count last_slice = 0;
    Cycle last_cycles = 0;
    bool first = true;
    for (const telemetry::TelemetrySample &sample :
         recorder.samples()) {
        if (!first) {
            EXPECT_GT(sample.slice, last_slice);
            EXPECT_GE(sample.cycles, last_cycles);
        }
        first = false;
        last_slice = sample.slice;
        last_cycles = sample.cycles;
        if (sample.final)
            ++finals;
    }
    EXPECT_EQ(finals, 1u);
    EXPECT_TRUE(recorder.samples().back().final);
}

TEST(Telemetry, JsonRecordsCarrySchemaAndReconcileWithoutDrops)
{
    // A no-drop run: every sample is retained, so summing the streamed
    // deltas per counter must reproduce the final record's cumulative
    // object exactly (the validator's strong-conservation path).
    const sim::RunDescriptor descriptor =
        sim::ExperimentConfig::app(fftApp())
            .mode("commguard")
            .mtbe(128'000)
            .seedIndex(1)
            .machine(fineGrainedMachine(2'000))
            .telemetry(16)
            .descriptor();
    sim::SweepRunner runner(1);
    runner.enqueue(descriptor);
    const sim::RunOutcome outcome = runner.runAll().front();
    ASSERT_NE(outcome.telemetry, nullptr);
    ASSERT_EQ(outcome.telemetry->droppedSamples(), 0u);

    const std::vector<Json> records =
        sim::telemetryRecordsJson(descriptor, outcome, 7);
    ASSERT_EQ(records.size(), outcome.telemetry->samples().size());
    ASSERT_GT(records.size(), 1u);

    std::map<std::string, Count> delta_sums;
    for (std::size_t i = 0; i < records.size(); ++i) {
        // Round-trip through the parser: every record must be a valid
        // single JSON document.
        Json parsed;
        std::string error;
        ASSERT_TRUE(Json::parse(records[i].dump(), parsed, &error))
            << error;
        const Json *version =
            records[i].find("telemetry_schema_version");
        ASSERT_NE(version, nullptr);
        EXPECT_EQ(version->dump(),
                  std::to_string(telemetry::kTelemetrySchemaVersion));
        const Json *run_index = records[i].find("run_index");
        ASSERT_NE(run_index, nullptr);
        EXPECT_EQ(run_index->dump(), "7");
        const Json *deltas = records[i].find("deltas");
        ASSERT_NE(deltas, nullptr);
        for (const auto &[name, value] : deltas->obj())
            delta_sums[name] += static_cast<Count>(value.counter());
        const Json *final_flag = records[i].find("final");
        ASSERT_NE(final_flag, nullptr);
        EXPECT_EQ(final_flag->dump(),
                  i + 1 == records.size() ? "true" : "false");
    }

    const Json *cumulative = records.back().find("cumulative");
    ASSERT_NE(cumulative, nullptr);
    std::map<std::string, Count> cumulative_map;
    for (const auto &[name, value] : cumulative->obj())
        cumulative_map[name] = static_cast<Count>(value.counter());
    EXPECT_EQ(delta_sums, cumulative_map);
}

TEST(Telemetry, FormatRateEtaGuardsDegenerateBatches)
{
    // The health board's rate/eta cell: an untouched batch or a
    // zero-length elapsed window must render placeholders, never
    // inf/nan.
    EXPECT_EQ(sim::formatRateEta(0, 10, 5.0), "--/s  eta --");
    EXPECT_EQ(sim::formatRateEta(5, 10, 0.0), "--/s  eta --");
    EXPECT_EQ(sim::formatRateEta(0, 10, 0.0), "--/s  eta --");

    // Healthy batches keep the familiar rendering.
    EXPECT_EQ(sim::formatRateEta(5, 10, 2.0), "2.5/s  eta 2s");
    EXPECT_EQ(sim::formatRateEta(10, 10, 4.0), "2.5/s  eta 0s");
}

} // namespace
} // namespace commguard
