/**
 * @file
 * Tests for the saturating counter.
 */

#include <gtest/gtest.h>

#include "common/sat_counter.hh"

namespace commguard
{
namespace
{

// ----------------------------------------------------------------------
// Saturating counter (frame-size downscaler, paper §5.4).
// ----------------------------------------------------------------------

TEST(SaturatingCounter, LimitOneFiresEveryTick)
{
    SaturatingCounter c(1);
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(c.tick());
}

TEST(SaturatingCounter, FiresOnFirstOfEachGroup)
{
    SaturatingCounter c(3);
    // Ticks 1, 4, 7 fire (frame *starts*).
    EXPECT_TRUE(c.tick());
    EXPECT_FALSE(c.tick());
    EXPECT_FALSE(c.tick());
    EXPECT_TRUE(c.tick());
    EXPECT_FALSE(c.tick());
    EXPECT_FALSE(c.tick());
    EXPECT_TRUE(c.tick());
}

TEST(SaturatingCounter, ZeroLimitClampsToOne)
{
    SaturatingCounter c(0);
    EXPECT_EQ(c.limit(), 1u);
    EXPECT_TRUE(c.tick());
    EXPECT_TRUE(c.tick());
}

TEST(SaturatingCounter, ResetRestartsGroup)
{
    SaturatingCounter c(4);
    EXPECT_TRUE(c.tick());
    EXPECT_FALSE(c.tick());
    c.reset();
    EXPECT_TRUE(c.tick());
}

/** Firing density is exactly 1/limit over long runs. */
class SatCounterDensity : public ::testing::TestWithParam<int>
{
};

TEST_P(SatCounterDensity, OneFiringPerGroup)
{
    const int limit = GetParam();
    SaturatingCounter c(static_cast<Count>(limit));
    int fires = 0;
    const int groups = 17;
    for (int i = 0; i < limit * groups; ++i)
        fires += c.tick();
    EXPECT_EQ(fires, groups);
}

INSTANTIATE_TEST_SUITE_P(Limits, SatCounterDensity,
                         ::testing::Values(1, 2, 3, 4, 8, 16, 64));

} // namespace
} // namespace commguard
