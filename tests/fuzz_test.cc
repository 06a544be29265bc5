/**
 * @file
 * Tests for the deterministic stress-fuzz harness (src/sim/fuzz.hh):
 * case derivation and JSON round-trips, the invariant checker on clean
 * and deliberately-broken cases, the greedy shrinker, the repro-bundle
 * format, and the wall-clock watchdog.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/fuzz.hh"
#include "sim/protection.hh"

namespace commguard::sim
{
namespace
{

TEST(FuzzCase, DerivationIsDeterministic)
{
    const FuzzCase a = randomFuzzCase(7);
    const FuzzCase b = randomFuzzCase(7);
    EXPECT_TRUE(a == b);
    EXPECT_EQ(a.caseSeed, 7u);

    // Neighboring seeds decorrelate: at least one axis differs.
    const FuzzCase c = randomFuzzCase(8);
    EXPECT_FALSE(a == c);
}

TEST(FuzzCase, JsonRoundTripsExactly)
{
    FuzzCase original = randomFuzzCase(11);
    original.breakInvariant = "counter";

    const Json json = fuzzCaseJson(original);
    FuzzCase parsed;
    std::string error;
    ASSERT_TRUE(fuzzCaseFromJson(json, parsed, &error)) << error;
    EXPECT_TRUE(parsed == original);

    // And through text, as the bundle files store it.
    Json reparsed;
    ASSERT_TRUE(Json::parse(json.dump(), reparsed, &error)) << error;
    FuzzCase from_text;
    ASSERT_TRUE(fuzzCaseFromJson(reparsed, from_text, &error)) << error;
    EXPECT_TRUE(from_text == original);
}

TEST(FuzzCase, ParserRejectsBadDocuments)
{
    FuzzCase out;
    std::string error;
    EXPECT_FALSE(fuzzCaseFromJson(Json("nope"), out, &error));

    Json missing = fuzzCaseJson(randomFuzzCase(1));
    missing.obj().erase("mode");
    EXPECT_FALSE(fuzzCaseFromJson(missing, out, &error));
    EXPECT_NE(error.find("mode"), std::string::npos);

    Json bad_mode = fuzzCaseJson(randomFuzzCase(1));
    bad_mode["mode"] = Json("turbo");
    EXPECT_FALSE(fuzzCaseFromJson(bad_mode, out, &error));

    Json zero_stages = fuzzCaseJson(randomFuzzCase(1));
    zero_stages["stages"] = Json(0);
    EXPECT_FALSE(fuzzCaseFromJson(zero_stages, out, &error));
}

TEST(FuzzCheck, CleanCasesSatisfyEveryInvariant)
{
    for (const std::uint64_t seed : {1ull, 2ull, 3ull}) {
        const FuzzCase fuzz_case = randomFuzzCase(seed);
        const FuzzVerdict verdict = checkFuzzCase(fuzz_case);
        EXPECT_TRUE(verdict.ok())
            << "seed " << seed << ": " << verdict.failures[0];
        EXPECT_GE(verdict.runs,
                  static_cast<std::size_t>(fuzz_case.sweepSeeds) * 2);
    }
}

TEST(FuzzCheck, AbftResyncIsBoundedOnACorruptedQueue)
{
    // Regression (found by the check.sh fuzz gate): case seed 708 is
    // an abft run at MTBE 8k whose software-queue pointer corruption
    // made the queue look non-empty forever; the consumer's
    // checksum-resync loop drained ~2.5G stray items inside one pop
    // until the global instruction watchdog aborted the run. The
    // drain is now budgeted (abftResyncSlack): the block is delivered
    // unverified and the run completes.
    const FuzzCase fuzz_case = randomFuzzCase(708);
    ASSERT_EQ(protection::protectionModeName(fuzz_case.mode),
              std::string("abft"));
    const FuzzVerdict verdict = checkFuzzCase(fuzz_case);
    EXPECT_TRUE(verdict.ok()) << verdict.failures[0];
}

TEST(FuzzCheck, AbftChargesQueueCostPerServedItemNotPerBlock)
{
    // Regression: when a checksum block spans several invocations
    // (frame scale 4 here), buffering the whole block on its first
    // pop used to burst every item's exposed queue cost into one
    // invocation's scope budget — tripping the PPU watchdog and
    // losing items even error-free. Exactness now holds.
    FuzzCase fuzz_case = randomFuzzCase(1122);
    fuzz_case.mode = protection::ProtectionMode::Abft;
    fuzz_case.injectErrors = false;
    fuzz_case.stages = 2;
    fuzz_case.allowSplitJoin = false;
    fuzz_case.frameScale = 4;
    fuzz_case.graphSeed = 10020974086654638089ull;
    fuzz_case.iterations = 7;
    fuzz_case.queueCapacityWords = 4096;
    fuzz_case.sweepSeeds = 1;
    const FuzzVerdict verdict = checkFuzzCase(fuzz_case);
    EXPECT_TRUE(verdict.ok()) << verdict.failures[0];
}

TEST(FuzzCheck, CounterHookTripsOnlyConservation)
{
    FuzzCase fuzz_case = randomFuzzCase(1);
    fuzz_case.breakInvariant = "counter";
    const FuzzVerdict verdict = checkFuzzCase(fuzz_case);
    ASSERT_FALSE(verdict.ok());
    for (const std::string &failure : verdict.failures)
        EXPECT_EQ(failure.find("conservation:"), 0u) << failure;
}

TEST(FuzzCheck, DeterminismHookTripsDeterminism)
{
    FuzzCase fuzz_case = randomFuzzCase(1);
    fuzz_case.breakInvariant = "determinism";
    const FuzzVerdict verdict = checkFuzzCase(fuzz_case);
    ASSERT_FALSE(verdict.ok());
    bool saw_determinism = false;
    for (const std::string &failure : verdict.failures)
        saw_determinism |= failure.find("determinism:") == 0;
    EXPECT_TRUE(saw_determinism);
}

TEST(FuzzCheck, SchemaHookTripsSchema)
{
    FuzzCase fuzz_case = randomFuzzCase(1);
    fuzz_case.breakInvariant = "schema";
    const FuzzVerdict verdict = checkFuzzCase(fuzz_case);
    ASSERT_FALSE(verdict.ok());
    for (const std::string &failure : verdict.failures)
        EXPECT_EQ(failure.find("schema:"), 0u) << failure;
}

TEST(FuzzShrink, KeepsFailingAndSimplifies)
{
    // Start from a deliberately large failing case.
    FuzzCase failing = randomFuzzCase(2);
    failing.stages = 5;
    failing.sweepSeeds = 2;
    failing.jobs = 4;
    failing.breakInvariant = "counter";
    ASSERT_FALSE(checkFuzzCase(failing).ok());

    const FuzzCase minimal = shrinkFuzzCase(failing);

    // Still failing — a shrink that loses the bug is worthless.
    EXPECT_FALSE(checkFuzzCase(minimal).ok());
    // The hook fails regardless of shape, so the greedy pass must
    // reach the floor of every axis it walks.
    EXPECT_EQ(minimal.sweepSeeds, 1);
    EXPECT_EQ(minimal.stages, 2);
    EXPECT_EQ(minimal.jobs, 2u);
    EXPECT_EQ(minimal.iterations, 1u);
    EXPECT_EQ(minimal.frameScale, 1u);
    EXPECT_FALSE(minimal.allowSplitJoin);
    EXPECT_FALSE(minimal.injectErrors);
    EXPECT_EQ(minimal.mode, protection::ProtectionMode::Raw);
    // The hook survives shrinking: that's what makes it replayable.
    EXPECT_EQ(minimal.breakInvariant, "counter");
}

TEST(FuzzBundle, RoundTripsThroughDiskFormat)
{
    FuzzCase fuzz_case = randomFuzzCase(5);
    fuzz_case.breakInvariant = "schema";
    const std::vector<std::string> failures = {"schema: run 0: bad"};

    const std::string path =
        ::testing::TempDir() + "fuzz_bundle_test.json";
    writeReproBundle(path, fuzz_case, failures);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    std::remove(path.c_str());

    Json bundle;
    std::string error;
    ASSERT_TRUE(Json::parse(buffer.str(), bundle, &error)) << error;
    FuzzCase parsed;
    ASSERT_TRUE(reproBundleFromJson(bundle, parsed, &error)) << error;
    EXPECT_TRUE(parsed == fuzz_case);
    EXPECT_EQ(bundle.find("failures")->arr().size(), 1u);
}

TEST(FuzzBundle, RejectsWrongKindAndVersion)
{
    FuzzCase out;
    std::string error;

    Json wrong_kind = reproBundleJson(randomFuzzCase(1), {});
    wrong_kind["kind"] = Json("bench");
    EXPECT_FALSE(reproBundleFromJson(wrong_kind, out, &error));

    Json wrong_version = reproBundleJson(randomFuzzCase(1), {});
    wrong_version["schema_version"] = Json(999);
    EXPECT_FALSE(reproBundleFromJson(wrong_version, out, &error));
}

TEST(FuzzWatchdogDeath, KillsAHungCaseWithTheDistinctExitCode)
{
    EXPECT_EXIT(
        {
            FuzzWatchdog watchdog;
            watchdog.arm(0.05, "watchdog-death-test-context");
            for (;;) {
                // Simulated hang: never disarm. (Sleep keeps the
                // loop observable, so it cannot be optimized away.)
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(5));
            }
        },
        ::testing::ExitedWithCode(kFuzzWatchdogExitCode),
        "watchdog-death-test-context");
}

TEST(FuzzWatchdog, DisarmedWatchdogNeverFires)
{
    FuzzWatchdog watchdog;
    watchdog.arm(0.01, "must-not-fire");
    watchdog.disarm();
    // Give a buggy watchdog ample time to fire before we declare
    // victory (it would kill the whole test binary).
    std::this_thread::sleep_for(std::chrono::milliseconds(50));

    // Re-arming after disarm works.
    watchdog.arm(60.0, "long-budget");
    watchdog.disarm();
}

} // namespace
} // namespace commguard::sim
