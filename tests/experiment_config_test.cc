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
#include "sim/run_codec.hh"
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

TEST_F(ExperimentConfigTest, DescriptorJsonBytesAreGolden)
{
    // The canonical descriptor encoding is a stability contract: its
    // bytes are the result-cache content address (src/sim/run_codec.hh).
    // Any change to this string silently invalidates every existing
    // cache entry — update it only deliberately, together with
    // docs/RESULT_CACHE.md.
    const RunDescriptor descriptor =
        ExperimentConfig::app(_app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(128'000)
            .seedIndex(2)
            .frameScale(2)
            .descriptor();
    EXPECT_EQ(
        descriptorJson(descriptor).dump(),
        "{\"app\":\"fft\",\"app_spec\":{\"blocks\":16,\"factory\":"
        "\"fft\"},\"flip_all_registers\":false,"
        "\"frame_aligned_output\":false,\"frame_scale\":2,"
        "\"guard_source_edge\":true,\"inject_errors\":true,"
        "\"machine\":{\"global_watchdog_insts\":50000000000,"
        "\"ppu\":{\"default_scope_budget\":1000000,"
        "\"enforce_nested_scopes\":true,"
        "\"max_scope_budget\":64000000,\"max_scope_depth\":8,"
        "\"watchdog_multiplier\":2},"
        "\"slice_instructions\":50000,\"timeout_rounds\":2000,"
        "\"timing\":{\"frame_flush_cycles\":4,"
        "\"mem_extra_cycles\":1,\"queue_op_cycles\":2}},"
        "\"mtbe\":128000,\"per_core_mtbe\":[],"
        "\"per_node_frame_scale\":[],"
        "\"protection_mode\":\"commguard\","
        "\"queue_capacity_words\":4096,\"replicas\":2,"
        "\"seed\":3000009}");
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
