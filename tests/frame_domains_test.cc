/**
 * @file
 * Tests for varying frame definitions across an application (paper
 * §5.4): per-node frame domains, redundant per-edge active-fc
 * counters, lcm granularity on domain-crossing edges, error-free
 * exactness, and realignment under errors.
 */

#include <gtest/gtest.h>

#include "kernels/basic.hh"
#include "sim/experiment.hh"
#include "streamit/loader.hh"
#include "test_util.hh"

namespace commguard::streamit
{
namespace
{

using protection::ProtectionMode;

/** Three-stage pass-through pipeline, 2 items per firing. */
StreamGraph
makeChain3()
{
    StreamGraph g;
    NodeId prev = -1;
    for (int i = 0; i < 3; ++i) {
        std::string name = "N";
        name += std::to_string(i);
        const NodeId node = g.addFilter(
            {name, {2}, {2}, [name](int firings) {
                 return kernels::buildPassthrough(name, 2, firings);
             }});
        if (prev >= 0)
            g.connect(prev, 0, node, 0);
        prev = node;
    }
    g.setExternalInput(0, 0);
    g.setExternalOutput(2, 0);
    return g;
}

std::vector<Word>
iota(std::size_t n)
{
    std::vector<Word> v(n);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = static_cast<Word>(i + 1);
    return v;
}

TEST(FrameDomains, MixedScalesRunExactlyErrorFree)
{
    const StreamGraph g = makeChain3();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.perNodeFrameScale = {1, 2, 4};

    const Count iterations = 16;
    LoadedApp app = loadGraph(g, iota(32), iterations, options);
    ASSERT_TRUE(app.run().completed);
    EXPECT_EQ(app.output(), iota(32));
}

TEST(FrameDomains, EdgeGranularityIsLcmOfDomains)
{
    const StreamGraph g = makeChain3();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.perNodeFrameScale = {2, 3, 4};

    const Count iterations = 24;
    LoadedApp app = loadGraph(g, iota(48), iterations, options);
    ASSERT_TRUE(app.run().completed);
    EXPECT_EQ(app.output(), iota(48));

    const std::vector<CommGuardBackend *> cg =
        test::commGuardBackends(*app.machine);
    ASSERT_EQ(cg.size(), 3u);
    // Edge N0->N1 is guarded at lcm(2,3)=6; N1->N2 at lcm(3,4)=12.
    // 24 invocations -> 4 frames on the first edge, 2 on the second,
    // plus one EOC marker per producer.
    EXPECT_EQ(cg[0]->outFc(0).downscale(), 6u);
    EXPECT_EQ(cg[1]->inFc(0).downscale(), 6u);
    EXPECT_EQ(cg[1]->outFc(0).downscale(), 12u);
    EXPECT_EQ(cg[2]->inFc(0).downscale(), 12u);
    EXPECT_EQ(cg[0]->outFc(0).value(), 4u);
    EXPECT_EQ(cg[1]->outFc(0).value(), 2u);

    // The source edge follows the input node's domain (scale 2):
    // 24/2 = 12 headers consumed by N0's alignment manager.
    EXPECT_EQ(cg[0]->inFc(0).downscale(), 2u);
    EXPECT_EQ(cg[0]->counters().headerLoads, 12u);
    // (The source's EOC marker is never popped: the thread finishes
    // its last frame without another pop.)
}

TEST(FrameDomains, PerEdgeHeaderCountsFollowTheirDomains)
{
    const StreamGraph g = makeChain3();
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.perNodeFrameScale = {1, 2, 4};

    const Count iterations = 16;
    LoadedApp app = loadGraph(g, iota(32), iterations, options);
    ASSERT_TRUE(app.run().completed);

    // N0->N1 at lcm(1,2)=2 -> 8 headers (+EOC); N1->N2 at lcm(2,4)=4
    // -> 4 headers (+EOC); N2->collector at 4 -> 4 headers (+EOC).
    const std::vector<CommGuardBackend *> cg =
        test::commGuardBackends(*app.machine);
    EXPECT_EQ(cg[0]->counters().headerStores, 9u);
    EXPECT_EQ(cg[1]->counters().headerStores, 5u);
    EXPECT_EQ(cg[2]->counters().headerStores, 5u);
}

TEST(FrameDomains, UniformPerNodeScaleEqualsGlobalScale)
{
    const StreamGraph g = makeChain3();
    const Count iterations = 12;

    auto run_headers = [&](LoadOptions options) {
        LoadedApp app = loadGraph(g, iota(24), iterations, options);
        EXPECT_TRUE(app.run().completed);
        EXPECT_EQ(app.output(), iota(24));
        Count headers = 0;
        for (CommGuardBackend *backend : test::commGuardBackends(*app.machine))
            headers += backend->counters().headerStores;
        return headers;
    };

    LoadOptions global;
    global.mode = ProtectionMode::CommGuard;
    global.injectErrors = false;
    global.frameScale = 3;

    LoadOptions per_node = global;
    per_node.frameScale = 1;
    per_node.perNodeFrameScale = {3, 3, 3};

    EXPECT_EQ(run_headers(global), run_headers(per_node));
}

TEST(FrameDomains, ErroneousMixedDomainsStillComplete)
{
    const StreamGraph g = makeChain3();
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        LoadOptions options;
        options.mode = ProtectionMode::CommGuard;
        options.injectErrors = true;
        options.mtbe = 1'500;
        options.seed = seed;
        options.perNodeFrameScale = {1, 2, 4};
        LoadedApp app = loadGraph(g, iota(512), 256, options);
        EXPECT_TRUE(app.run().completed) << "seed " << seed;
    }
}

TEST(FrameDomains, JpegRunsWithMixedDomains)
{
    // Give the split-join channels a coarser domain than the rest.
    const apps::App app = apps::makeJpegApp(64, 32, 50);
    LoadOptions options;
    options.mode = ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.perNodeFrameScale = {1, 1, 1, 2, 2, 2, 1, 1, 1, 1};

    const sim::RunOutcome outcome = sim::runOnce(app, options);
    EXPECT_TRUE(outcome.completed);
    EXPECT_NEAR(outcome.qualityDb, app.errorFreeQualityDb, 0.35);
}

TEST(FrameDomains, WrongScaleCountDies)
{
    EXPECT_EXIT(
        {
            const StreamGraph g = makeChain3();
            LoadOptions options;
            options.perNodeFrameScale =
                std::vector<Count>({1, 2});  // 3 nodes!
            loadGraph(g, {}, 1, options);
        },
        ::testing::ExitedWithCode(1), "perNodeFrameScale");
}

} // namespace
} // namespace commguard::streamit
