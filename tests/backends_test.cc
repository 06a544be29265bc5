/**
 * @file
 * Tests for the CommGuard per-core backend assembly (Fig. 4): header
 * insertion at frame computations, AM-mediated pops, idempotent
 * blocked retries, and timeout behavior.
 */

#include <gtest/gtest.h>

#include <memory>

#include "isa/assembler.hh"
#include "commguard/hardware_area.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/reliable_queue.hh"
#include "queue/working_set_queue.hh"

namespace commguard
{
namespace
{

class CgBackendTest : public ::testing::Test
{
  protected:
    CgBackendTest()
        : _in("in", 64), _out("out", 4),
          _backend(std::vector<QueueBase *>{&_in},
                   std::vector<QueueBase *>{&_out}),
          _core(0, "t")
    {
        _backend.bindCore(&_core);
    }

    WorkingSetQueue _in;
    WorkingSetQueue _out;
    CommGuardBackend _backend;
    Core _core;
};

TEST_F(CgBackendTest, NewFrameInsertsHeaderIntoOutQueues)
{
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Ok);
    QueueWord w;
    ASSERT_EQ(_out.tryPop(w), QueueOpStatus::Ok);
    EXPECT_TRUE(w.isHeader);
    EXPECT_EQ(w.value, 1u);
    EXPECT_EQ(_backend.activeFc().value(), 1u);
}

TEST_F(CgBackendTest, BlockedFrameEventDoesNotDoubleTick)
{
    // Fill the out queue so header insertion blocks.
    for (int i = 0; i < 4; ++i)
        ASSERT_EQ(_out.tryPush(makeItem(0)), QueueOpStatus::Ok);
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Blocked);
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Blocked);
    EXPECT_EQ(_backend.activeFc().value(), 1u);  // Ticked once only.

    QueueWord w;
    ASSERT_EQ(_out.tryPop(w), QueueOpStatus::Ok);
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Ok);
    EXPECT_EQ(_backend.activeFc().value(), 1u);
    EXPECT_EQ(_backend.counters().prepareHeaderOps, 1u);
}

TEST_F(CgBackendTest, PushGoesThroughQueueManager)
{
    ASSERT_EQ(_backend.push(0, 77), QueueOpStatus::Ok);
    EXPECT_EQ(_backend.counters().dataStores, 1u);
    QueueWord w;
    ASSERT_EQ(_out.tryPop(w), QueueOpStatus::Ok);
    EXPECT_FALSE(w.isHeader);
    EXPECT_EQ(w.value, 77u);
}

TEST_F(CgBackendTest, PopAlignsAgainstHeaders)
{
    ASSERT_EQ(_in.tryPush(makeHeader(1)), QueueOpStatus::Ok);
    ASSERT_EQ(_in.tryPush(makeItem(5)), QueueOpStatus::Ok);
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Ok);
    const BackendPopResult r = _backend.pop(0);
    EXPECT_FALSE(r.blocked);
    EXPECT_EQ(r.value, 5u);
    EXPECT_EQ(_backend.am(0).state(), AmState::RcvCmp);
}

TEST_F(CgBackendTest, PopBlocksOnEmptyQueue)
{
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Ok);
    EXPECT_TRUE(_backend.pop(0).blocked);
}

TEST_F(CgBackendTest, TimeoutPopDeliversPadding)
{
    const Word v = _backend.timeoutPop(0);
    EXPECT_EQ(v, 0u);
    EXPECT_EQ(_backend.counters().paddedItems, 1u);
}

TEST_F(CgBackendTest, EndOfComputationEmitsMarker)
{
    ASSERT_EQ(_backend.endOfComputation(), QueueOpStatus::Ok);
    QueueWord w;
    ASSERT_EQ(_out.tryPop(w), QueueOpStatus::Ok);
    EXPECT_TRUE(w.isHeader);
    EXPECT_EQ(w.value, endOfComputationId);
}

TEST_F(CgBackendTest, SerializesFrames)
{
    EXPECT_TRUE(_backend.serializesFrames());
    RawBackend raw({}, {});
    EXPECT_FALSE(raw.serializesFrames());
}

TEST_F(CgBackendTest, ExportStatsPublishesCounters)
{
    ASSERT_EQ(_backend.newFrameComputation(), QueueOpStatus::Ok);
    metrics::Registry registry;
    _backend.linkMetrics(registry, "f0");
    const metrics::MetricSnapshot stats = registry.snapshot();
    EXPECT_EQ(stats.get("cg/f0/headerStores"), 1u);
    EXPECT_EQ(stats.get("cg/f0/prepareHeaderOps"), 1u);
}

TEST_F(CgBackendTest, FrameDownscaleSkipsHeaderInsertions)
{
    WorkingSetQueue out2("out2", 64);
    CommGuardBackend scaled({}, {&out2}, 3);
    Core core(1, "c");
    scaled.bindCore(&core);

    for (int i = 0; i < 9; ++i)
        ASSERT_EQ(scaled.newFrameComputation(), QueueOpStatus::Ok);
    // 9 invocations at downscale 3 -> 3 CommGuard frames.
    EXPECT_EQ(out2.counters().pushes, 3u);
    EXPECT_EQ(scaled.activeFc().value(), 3u);
    EXPECT_EQ(scaled.counters().counterOps, 9u);
}

// ----------------------------------------------------------------------
// Hardware area accounting (paper SS5.5).
// ----------------------------------------------------------------------

TEST(HardwareArea, MatchesPaperEstimateForFourQueues)
{
    // Paper: 4 x 4B + 4 x (3 bits + 4 x 4B) ~ 82B for 4 queues/core.
    const HardwareArea area = commGuardReliableStorage(4);
    EXPECT_EQ(area.totalBytes(), 82u);
}

TEST(HardwareArea, ScalesLinearlyInQueues)
{
    const HardwareArea one = commGuardReliableStorage(1);
    const HardwareArea three = commGuardReliableStorage(3);
    EXPECT_EQ(three.perQueueBits, 3 * one.perQueueBits);
    EXPECT_EQ(three.counterBits, one.counterBits);
    // Always small enough to live on core (paper: "completely
    // cached on core").
    EXPECT_LT(commGuardReliableStorage(8).totalBytes(), 256u);
}

} // namespace
} // namespace commguard
