/**
 * @file
 * Tests for the result cache and the run codec it stores runs with
 * (docs/RESULT_CACHE.md):
 *  - the run codec: word streams round-trip through hex, a JSONL run
 *    record rebuilds the exact RunOutcome, and cacheability tracks
 *    the app spec and the run's observability requests,
 *  - the content-addressed result cache: store/lookup replays the
 *    exact record bytes, corrupt or mismatched entries degrade to
 *    misses, the key is descriptor-sensitive, and stale temp files
 *    are reclaimed.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>
#include <vector>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/result_cache.hh"
#include "sim/run_codec.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"

namespace commguard::sim
{
namespace
{

namespace fs = std::filesystem;

void
expectBitwiseEqual(const RunOutcome &a, const RunOutcome &b)
{
    EXPECT_EQ(std::memcmp(&a.qualityDb, &b.qualityDb, sizeof(double)),
              0);
    EXPECT_EQ(a.completed, b.completed);
    EXPECT_TRUE(a.snapshot == b.snapshot);
    EXPECT_EQ(a.output, b.output);
}

// ----------------------------------------------------------------------
// Run codec.
// ----------------------------------------------------------------------

TEST(RunCodec, WordHexRoundTrip)
{
    const std::vector<Word> words = {0u, 1u, 0xdeadbeefu, 0xffffffffu};
    const std::string hex = encodeWords(words);
    EXPECT_EQ(hex, "0000000000000001deadbeefffffffff");

    std::vector<Word> back;
    ASSERT_TRUE(decodeWords(hex, &back));
    EXPECT_EQ(back, words);

    EXPECT_TRUE(decodeWords("", &back));
    EXPECT_TRUE(back.empty());

    EXPECT_FALSE(decodeWords("0000000", &back));   // Not 8-aligned.
    EXPECT_FALSE(decodeWords("0000000g", &back));  // Non-hex.
}

TEST(RunCodec, ShippabilityTracksSpecAndObservability)
{
    const apps::App app = apps::makeFftApp(16);
    RunDescriptor descriptor = {
        &app,
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     64'000.0, 0)};
    EXPECT_TRUE(runCacheable(descriptor));

    // Observability artifacts cannot be replayed from an entry.
    descriptor.options.machine.traceEvents = true;
    EXPECT_FALSE(runCacheable(descriptor));
    descriptor.options.machine.traceEvents = false;
    descriptor.options.machine.telemetrySlices = 8;
    EXPECT_FALSE(runCacheable(descriptor));
    descriptor.options.machine.telemetrySlices = 0;
    EXPECT_TRUE(runCacheable(descriptor));

    // A hand-built app without a spec has no cache identity.
    apps::App bare = apps::makeFftApp(16);
    bare.spec.clear();
    const RunDescriptor uncacheable = {&bare, descriptor.options};
    EXPECT_FALSE(runCacheable(uncacheable));
}

TEST(RunCodec, OutcomeRebuildsFromRecord)
{
    const apps::App app = apps::makeFftApp(16);
    const RunDescriptor descriptor = {
        &app,
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     64'000.0, 1)};
    const RunOutcome outcome =
        runOnce(*descriptor.app, descriptor.options);

    const Json record = runRecordJson(descriptor, outcome);
    const RunOutcome rebuilt =
        outcomeFromRecord(record, outcome.output);
    expectBitwiseEqual(outcome, rebuilt);
}

TEST(RunCodec, BuildStampHashesTheRunningExecutable)
{
    // Published FNV-1a 64 test vectors.
    EXPECT_EQ(fnv1a64Hex(""), "cbf29ce484222325");
    EXPECT_EQ(fnv1a64Hex("a"), "af63dc4c8601ec8c");

    // The streamed file hash equals the in-memory one across chunk
    // boundaries (three 64 KiB chunks plus a partial one).
    std::string bytes;
    for (std::size_t i = 0; i < 200'003; ++i)
        bytes.push_back(static_cast<char>((i * 131) ^ (i >> 9)));
    const fs::path path =
        fs::path(::testing::TempDir()) /
        ("cg_stamp_" + std::to_string(::getpid()) + ".bin");
    std::ofstream(path, std::ios::binary) << bytes;
    EXPECT_EQ(fnv1a64FileHex(path.string()), fnv1a64Hex(bytes));
    fs::remove(path);

    // The stamp is the hash of this very binary, so any rebuild that
    // changes the executable's bytes changes every cache key.
    EXPECT_EQ(buildStamp(), fnv1a64FileHex("/proc/self/exe"));
    EXPECT_EQ(buildStamp().size(), 16u);
}

// ----------------------------------------------------------------------
// Result cache.
// ----------------------------------------------------------------------

/** A fresh cache directory under the test's scratch space. */
class ResultCacheTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        _dir = fs::path(::testing::TempDir()) /
               ("cg_cache_" + std::to_string(::getpid()) + "_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name());
        fs::remove_all(_dir);
        fs::create_directories(_dir);
    }
    void TearDown() override { fs::remove_all(_dir); }

    fs::path _dir;
    const apps::App _app = apps::makeFftApp(16);
};

TEST_F(ResultCacheTest, StoreThenLookupReplaysExactRecordBytes)
{
    const RunDescriptor descriptor = {
        &_app,
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     64'000.0, 0)};
    ExecutedRun executed;
    executed.outcome = runOnce(*descriptor.app, descriptor.options);
    executed.recordLine =
        runRecordJson(descriptor, executed.outcome).dump();

    ResultCache cache(_dir.string());
    ExecutedRun replayed;
    EXPECT_FALSE(cache.lookup(descriptor, &replayed));  // Cold.

    cache.store(descriptor, executed);
    ASSERT_TRUE(cache.lookup(descriptor, &replayed));
    EXPECT_EQ(replayed.recordLine, executed.recordLine);
    expectBitwiseEqual(replayed.outcome, executed.outcome);
    EXPECT_TRUE(replayed.traceDoc.empty());
    EXPECT_TRUE(replayed.telemetryChunk.empty());
}

TEST_F(ResultCacheTest, CorruptEntriesDegradeToMisses)
{
    const RunDescriptor descriptor = {
        &_app,
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     64'000.0, 0)};
    ExecutedRun executed;
    executed.outcome = runOnce(*descriptor.app, descriptor.options);
    executed.recordLine =
        runRecordJson(descriptor, executed.outcome).dump();

    ResultCache cache(_dir.string());
    cache.store(descriptor, executed);
    const fs::path entry =
        _dir / (ResultCache::keyFor(descriptor) + ".json");
    ASSERT_TRUE(fs::exists(entry));

    const Count invalid_before =
        ResultCache::stats().invalid.load();
    std::ofstream(entry) << "not json at all";
    ExecutedRun replayed;
    EXPECT_FALSE(cache.lookup(descriptor, &replayed));
    EXPECT_GT(ResultCache::stats().invalid.load(), invalid_before);

    // A syntactically valid entry keyed from a different descriptor
    // (hash-collision stand-in) is rejected by the descriptor
    // comparison, not trusted.
    RunDescriptor other = descriptor;
    other.options.seed += 1;
    ExecutedRun other_run;
    other_run.outcome = runOnce(*other.app, other.options);
    other_run.recordLine =
        runRecordJson(other, other_run.outcome).dump();
    cache.store(other, other_run);
    fs::copy_file(
        _dir / (ResultCache::keyFor(other) + ".json"), entry,
        fs::copy_options::overwrite_existing);
    EXPECT_FALSE(cache.lookup(descriptor, &replayed));
}

TEST_F(ResultCacheTest, KeyIsStableAndDescriptorSensitive)
{
    const ExperimentConfig config =
        ExperimentConfig::app(_app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(128'000)
            .seedIndex(2);
    const std::string key = config.cacheKey();
    EXPECT_EQ(key.size(), 16u);
    EXPECT_EQ(key.find_first_not_of("0123456789abcdef"),
              std::string::npos);
    EXPECT_EQ(key, ResultCache::keyFor(config.descriptor()));

    const std::string other =
        ExperimentConfig::app(_app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(128'000)
            .seedIndex(3)
            .cacheKey();
    EXPECT_NE(key, other);
}

TEST_F(ResultCacheTest, SweepsStaleOrphanTempFilesOnly)
{
    // A writer killed between the temp write and the rename in
    // store() leaves "<key>.json.tmp.<pid>" behind forever. The sweep
    // reclaims stale ones; fresh ones (a live concurrent writer still
    // filling its file) and real entries must survive.
    const fs::path stale = _dir / "00deadbeef00cafe.json.tmp.12345";
    const fs::path fresh = _dir / "00cafef00d00beef.json.tmp.6789";
    std::ofstream(stale) << "partial entry";
    std::ofstream(fresh) << "partial entry";
    fs::last_write_time(stale, fs::file_time_type::clock::now() -
                                   std::chrono::hours(1));

    const RunDescriptor descriptor = {
        &_app,
        sweepOptions(protection::ProtectionMode::CommGuard, true,
                     64'000.0, 0)};
    ExecutedRun executed;
    executed.outcome = runOnce(*descriptor.app, descriptor.options);
    executed.recordLine =
        runRecordJson(descriptor, executed.outcome).dump();
    ResultCache cache(_dir.string());
    cache.store(descriptor, executed);

    const Count swept_before =
        ResultCache::stats().orphansSwept.load();
    EXPECT_EQ(cache.sweepOrphans(60.0), 1u);
    EXPECT_EQ(ResultCache::stats().orphansSwept.load(),
              swept_before + 1);
    EXPECT_FALSE(fs::exists(stale));
    EXPECT_TRUE(fs::exists(fresh));
    ExecutedRun replayed;
    EXPECT_TRUE(cache.lookup(descriptor, &replayed));

    // Idempotent: nothing stale left.
    EXPECT_EQ(cache.sweepOrphans(60.0), 0u);
}

} // namespace
} // namespace commguard::sim
