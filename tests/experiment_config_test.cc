/**
 * @file
 * Tests for the validating fluent experiment builder: nonsense
 * configurations are rejected at set time with std::invalid_argument,
 * valid chains produce exactly the LoadOptions the loader expects, and
 * seedIndex() reproduces the canonical sweep seed derivation bit for
 * bit.
 */

#include <gtest/gtest.h>

#include <stdexcept>

#include "sim/experiment_config.hh"
#include "sim/sweep_runner.hh"

namespace commguard::sim
{
namespace
{

class ExperimentConfigTest : public ::testing::Test
{
  protected:
    const apps::App _app = apps::makeFftApp(16);
};

TEST_F(ExperimentConfigTest, RejectsNonPositiveMtbe)
{
    EXPECT_THROW(ExperimentConfig::app(_app).mtbe(0.0),
                 std::invalid_argument);
    EXPECT_THROW(ExperimentConfig::app(_app).mtbe(-512e3),
                 std::invalid_argument);
}

TEST_F(ExperimentConfigTest, RejectsZeroFrameScale)
{
    EXPECT_THROW(ExperimentConfig::app(_app).frameScale(0),
                 std::invalid_argument);
}

TEST_F(ExperimentConfigTest, RejectsBadPerNodeFrameScale)
{
    // Wrong length: the fft graph has 9 nodes.
    EXPECT_THROW(
        ExperimentConfig::app(_app).perNodeFrameScale({1, 2, 3}),
        std::invalid_argument);
    // Right length, but a zero entry.
    std::vector<Count> scales(
        static_cast<std::size_t>(_app.graph.numNodes()), 1);
    scales[4] = 0;
    EXPECT_THROW(ExperimentConfig::app(_app).perNodeFrameScale(scales),
                 std::invalid_argument);
    // Right length, all nonzero: accepted.
    scales[4] = 2;
    EXPECT_NO_THROW(
        ExperimentConfig::app(_app).perNodeFrameScale(scales));
}

TEST_F(ExperimentConfigTest, RejectsBadPerCoreMtbe)
{
    // Wrong length: the fft graph has 9 nodes.
    EXPECT_THROW(ExperimentConfig::app(_app).perCoreMtbe({1e5, 1e5}),
                 std::invalid_argument);
    // Right length, but a non-positive entry.
    std::vector<double> mtbes(
        static_cast<std::size_t>(_app.graph.numNodes()), 1e5);
    mtbes[3] = 0.0;
    EXPECT_THROW(ExperimentConfig::app(_app).perCoreMtbe(mtbes),
                 std::invalid_argument);
    // Right length, all positive: accepted and visible in options.
    mtbes[3] = 5e4;
    const ExperimentConfig config =
        ExperimentConfig::app(_app).perCoreMtbe(mtbes);
    EXPECT_EQ(config.options().perCoreMtbe, mtbes);
}

TEST_F(ExperimentConfigTest, RejectsZeroQueueCapacity)
{
    EXPECT_THROW(ExperimentConfig::app(_app).queueCapacityWords(0),
                 std::invalid_argument);
}

TEST_F(ExperimentConfigTest, RejectsNegativeSeedIndex)
{
    EXPECT_THROW(ExperimentConfig::app(_app).seedIndex(-1),
                 std::invalid_argument);
}

TEST_F(ExperimentConfigTest, ValidChainProducesExpectedOptions)
{
    const ExperimentConfig config =
        ExperimentConfig::app(_app)
            .mode(protection::ProtectionMode::ReliableQueue)
            .mtbe(128'000)
            .seed(77)
            .frameScale(4)
            .guardSourceEdge(false)
            .frameAlignedOutput(true)
            .queueCapacityWords(512);
    const streamit::LoadOptions &options = config.options();
    EXPECT_EQ(options.mode, protection::ProtectionMode::ReliableQueue);
    EXPECT_TRUE(options.injectErrors);
    EXPECT_DOUBLE_EQ(options.mtbe, 128'000.0);
    EXPECT_EQ(options.seed, 77u);
    EXPECT_EQ(options.frameScale, 4u);
    EXPECT_FALSE(options.guardSourceEdge);
    EXPECT_TRUE(options.frameAlignedOutput);
    EXPECT_EQ(&config.targetApp(), &_app);

    const RunDescriptor descriptor = config.descriptor();
    EXPECT_EQ(descriptor.app, &_app);
    EXPECT_EQ(descriptor.options.seed, 77u);
}

TEST_F(ExperimentConfigTest, NoErrorsDisablesInjection)
{
    const ExperimentConfig config =
        ExperimentConfig::app(_app).mtbe(64'000).noErrors();
    EXPECT_FALSE(config.options().injectErrors);
}

TEST_F(ExperimentConfigTest, SeedIndexMatchesSweepOptionsDerivation)
{
    for (int index : {0, 1, 4}) {
        const streamit::LoadOptions viaSweep = sweepOptions(
            protection::ProtectionMode::CommGuard, true, 256e3, index);
        const streamit::LoadOptions viaBuilder =
            ExperimentConfig::app(_app)
                .mode(protection::ProtectionMode::CommGuard)
                .mtbe(256e3)
                .seedIndex(index)
                .options();
        EXPECT_EQ(viaBuilder.seed, viaSweep.seed) << "index " << index;
    }
}

TEST_F(ExperimentConfigTest, RunProducesACompleteSnapshot)
{
    const RunOutcome outcome =
        ExperimentConfig::app(_app)
            .mode(protection::ProtectionMode::CommGuard)
            .noErrors()
            .run();
    EXPECT_TRUE(outcome.completed);
    EXPECT_EQ(outcome.snapshot.get("run/completed"), 1u);
    EXPECT_EQ(outcome.snapshot.get("run/outputItems"),
              outcome.output.size());
    EXPECT_GT(outcome.totalInstructions(), 0u);
}

} // namespace
} // namespace commguard::sim
