/**
 * @file
 * Tests for the frame-aligned output device: header-directed record
 * placement, overflow dropping, missing-frame zero fill, and the
 * app-level benefit (sink miscounts stop shifting the output stream).
 */

#include <gtest/gtest.h>

#include "queue/io_queue.hh"
#include "sim/experiment.hh"

namespace commguard
{
namespace
{

TEST(FrameAlignedCollector, PlacesFramesByHeaderId)
{
    FrameAlignedCollector c("out", 3, 10);
    // Frame 2 arrives before frame 1 (e.g., frame 1's record lost).
    ASSERT_EQ(c.tryPush(makeHeader(2)), QueueOpStatus::Ok);
    c.tryPush(makeItem(21));
    c.tryPush(makeItem(22));
    c.tryPush(makeItem(23));
    ASSERT_EQ(c.tryPush(makeHeader(1)), QueueOpStatus::Ok);
    c.tryPush(makeItem(11));

    // Frame 1's record: {11, 0, 0}; frame 2's record: {21, 22, 23}.
    EXPECT_EQ(c.items(),
              (std::vector<Word>{11, 0, 0, 21, 22, 23}));
}

TEST(FrameAlignedCollector, DropsOverflowWithinAFrame)
{
    FrameAlignedCollector c("out", 2, 10);
    c.tryPush(makeHeader(1));
    c.tryPush(makeItem(1));
    c.tryPush(makeItem(2));
    c.tryPush(makeItem(3));  // Over-push: dropped.
    c.tryPush(makeHeader(2));
    c.tryPush(makeItem(4));

    EXPECT_EQ(c.items(), (std::vector<Word>{1, 2, 4, 0}));
    EXPECT_EQ(c.counters().overflowDrops, 1u);
}

TEST(FrameAlignedCollector, ItemsBeforeAnyHeaderAreDropped)
{
    FrameAlignedCollector c("out", 2, 10);
    c.tryPush(makeItem(99));
    EXPECT_TRUE(c.items().empty());
    EXPECT_EQ(c.counters().overflowDrops, 1u);
}

TEST(FrameAlignedCollector, IgnoresEocAndBogusIds)
{
    FrameAlignedCollector c("out", 2, 4);
    c.tryPush(makeHeader(1));
    c.tryPush(makeItem(7));
    c.tryPush(makeHeader(endOfComputationId));  // No repositioning.
    c.tryPush(makeItem(8));
    c.tryPush(makeHeader(4000));  // Beyond max_frames: ignored.
    c.tryPush(makeItem(9));       // Lands after frame 1's region ends.

    EXPECT_EQ(c.items(), (std::vector<Word>{7, 8}));
    EXPECT_EQ(c.counters().overflowDrops, 1u);
    EXPECT_EQ(c.counters().headersCollected, 3u);
}

TEST(FrameAlignedOutput, ErrorFreeOutputIsUnchanged)
{
    const apps::App app = apps::makeFftApp(32);
    streamit::LoadOptions plain;
    plain.mode = protection::ProtectionMode::CommGuard;
    plain.injectErrors = false;
    streamit::LoadOptions aligned = plain;
    aligned.frameAlignedOutput = true;

    EXPECT_EQ(sim::runOnce(app, plain).output,
              sim::runOnce(app, aligned).output);
}

TEST(FrameAlignedOutput, OutputLengthIsAlwaysWellFormed)
{
    // Under heavy errors, the aligned device's output length is a
    // whole number of frame records regardless of sink miscounts.
    const apps::App app = apps::makeFftApp(64);
    streamit::LoadOptions options;
    options.mode = protection::ProtectionMode::CommGuard;
    options.injectErrors = true;
    options.mtbe = 30'000;
    options.frameAlignedOutput = true;

    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        options.seed = seed;
        const sim::RunOutcome outcome = sim::runOnce(app, options);
        EXPECT_TRUE(outcome.completed);
        EXPECT_EQ(outcome.output.size() % 128, 0u) << "seed " << seed;
        EXPECT_LE(outcome.output.size(), 64u * 128u);
    }
}

TEST(FrameAlignedOutput, ImprovesMeanQualityUnderErrors)
{
    // Sink-side shifts penalize positional quality metrics; aligning
    // output records by frame ID removes that artifact. Compare
    // 5-seed means (deterministic for fixed seeds).
    const apps::App app = apps::makeJpegApp(128, 64, 50);

    auto mean_quality = [&](bool aligned) {
        double sum = 0.0;
        for (std::uint64_t seed = 1; seed <= 5; ++seed) {
            streamit::LoadOptions options;
            options.mode = protection::ProtectionMode::CommGuard;
            options.injectErrors = true;
            options.mtbe = 128'000;
            options.seed = seed;
            options.frameAlignedOutput = aligned;
            sum += sim::runOnce(app, options).qualityDb;
        }
        return sum / 5.0;
    };

    EXPECT_GE(mean_quality(true) + 0.5, mean_quality(false));
}

} // namespace
} // namespace commguard
