/**
 * @file
 * Tests for the CnC-style tagged programming model (paper §8): the
 * lowering onto the streaming substrate, tag-to-frame correspondence,
 * error-free exactness, and error tolerance under CommGuard.
 */

#include <gtest/gtest.h>

#include "cnc/cnc.hh"
#include "isa/assembler.hh"
#include "kernels/basic.hh"
#include "sim/experiment.hh"
#include "streamit/loader.hh"
#include "test_util.hh"

namespace commguard
{
namespace
{

using namespace isa;

/** Step body: per tag instance, y = 2x + 1 on a single item. */
Program
affineStep(int instances_per_frame)
{
    Assembler a("affine");
    a.forDown(R30, static_cast<Word>(instances_per_frame), [&] {
        a.pop(R2, 0);
        a.lif(R3, 2.0f);
        a.fmul(R4, R2, R3);
        a.lif(R3, 1.0f);
        a.fadd(R4, R4, R3);
        a.push(0, R4);
    });
    a.setEstimatedInsts(static_cast<Count>(instances_per_frame) * 10);
    return a.finalize();
}

/** Step body: per tag instance, pairwise sum of 2 items into 1. */
Program
pairSumStep(int instances_per_frame)
{
    Assembler a("pairsum");
    a.forDown(R30, static_cast<Word>(instances_per_frame), [&] {
        a.pop(R2, 0);
        a.pop(R3, 0);
        a.fadd(R4, R2, R3);
        a.push(0, R4);
    });
    a.setEstimatedInsts(static_cast<Count>(instances_per_frame) * 8);
    return a.finalize();
}

/** A 3-step CnC program: normalize -> pair-reduce -> emit. */
cnc::CncGraph
makeCncProgram()
{
    cnc::CncGraph g;
    const cnc::StepId normalize = g.addStep(
        {"normalize", {2}, {2}, [](int n) {
             // Two items per tag, each mapped by the affine step.
             Assembler a("normalize");
             a.forDown(R30, static_cast<Word>(2 * n), [&] {
                 a.pop(R2, 0);
                 a.lif(R3, 2.0f);
                 a.fmul(R4, R2, R3);
                 a.lif(R3, 1.0f);
                 a.fadd(R4, R4, R3);
                 a.push(0, R4);
             });
             a.setEstimatedInsts(static_cast<Count>(n) * 20);
             return a.finalize();
         }});
    const cnc::StepId reduce =
        g.addStep({"reduce", {2}, {1}, pairSumStep});
    const cnc::StepId emit = g.addStep(
        {"emit", {1}, {1}, [](int n) {
             return kernels::buildClampRange("emit", -100.0f, 100.0f,
                                             1, n);
         }});
    g.connectItems(normalize, 0, reduce, 0);
    g.connectItems(reduce, 0, emit, 0);
    g.setEnvironmentInput(normalize, 0);
    g.setEnvironmentOutput(emit, 0);
    return g;
}

TEST(Cnc, LoweringProducesValidStreamGraph)
{
    const streamit::StreamGraph g = makeCncProgram().lower();
    EXPECT_EQ(g.validateStructure(), "");
    EXPECT_EQ(g.numNodes(), 3);

    const streamit::RepetitionVector reps =
        streamit::solveRepetitions(g);
    ASSERT_TRUE(reps.ok) << reps.error;
    // One tag instance of each step per steady iteration.
    EXPECT_EQ(reps.firings,
              (std::vector<Count>{1, 1, 1}));
}

TEST(Cnc, ErrorFreeExecutionComputesTheProgram)
{
    const streamit::StreamGraph g = makeCncProgram().lower();

    // Input: tags t = 1..8 each carry items (t, t+0.5).
    const int tags = 8;
    std::vector<Word> input;
    for (int t = 1; t <= tags; ++t) {
        input.push_back(floatToWord(static_cast<float>(t)));
        input.push_back(floatToWord(static_cast<float>(t) + 0.5f));
    }

    streamit::LoadOptions options;
    options.mode = protection::ProtectionMode::CommGuard;
    options.injectErrors = false;
    streamit::LoadedApp app =
        streamit::loadGraph(g, input, tags, options);
    ASSERT_TRUE(app.run().completed);

    const std::vector<Word> &out = app.output();
    ASSERT_EQ(out.size(), static_cast<std::size_t>(tags));
    for (int t = 1; t <= tags; ++t) {
        // (2t+1) + (2(t+0.5)+1) = 4t + 3.
        EXPECT_FLOAT_EQ(wordToFloat(out[t - 1]),
                        4.0f * static_cast<float>(t) + 3.0f)
            << "tag " << t;
    }
}

TEST(Cnc, TagsBecomeFrameHeaders)
{
    const streamit::StreamGraph g = makeCncProgram().lower();
    const int tags = 5;
    std::vector<Word> input(2 * tags, floatToWord(1.0f));

    streamit::LoadOptions options;
    options.mode = protection::ProtectionMode::CommGuard;
    options.injectErrors = false;
    streamit::LoadedApp app =
        streamit::loadGraph(g, input, tags, options);
    ASSERT_TRUE(app.run().completed);

    // Each step's HI stamped one header per tag (plus the EOC marker)
    // into each outgoing collection; the producer-side counter is the
    // running tag.
    const std::vector<CommGuardBackend *> cg =
        test::commGuardBackends(*app.machine);
    ASSERT_EQ(cg.size(), 3u);
    for (CommGuardBackend *backend : cg) {
        EXPECT_EQ(backend->activeFc().value(),
                  static_cast<FrameId>(tags));
        EXPECT_EQ(backend->counters().headerStores,
                  static_cast<Count>(tags) + 1);
    }
}

TEST(Cnc, ErroneousExecutionStillCompletes)
{
    const streamit::StreamGraph g = makeCncProgram().lower();
    const int tags = 256;
    std::vector<Word> input(2 * tags, floatToWord(0.5f));

    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        streamit::LoadOptions options;
        options.mode = protection::ProtectionMode::CommGuard;
        options.injectErrors = true;
        options.mtbe = 5'000;
        options.seed = seed;
        streamit::LoadedApp app =
            streamit::loadGraph(g, input, tags, options);
        EXPECT_TRUE(app.run().completed) << "seed " << seed;
    }
}

TEST(Cnc, MissingEnvironmentDiesFast)
{
    EXPECT_EXIT(
        {
            cnc::CncGraph g;
            g.addStep({"s", {1}, {1}, affineStep});
            g.lower();
        },
        ::testing::ExitedWithCode(1), "environment");
}

TEST(Cnc, MissingBodyDiesFast)
{
    EXPECT_EXIT(
        {
            cnc::CncGraph g;
            const cnc::StepId s = g.addStep({"s", {1}, {1}, nullptr});
            g.setEnvironmentInput(s, 0);
            g.setEnvironmentOutput(s, 0);
            g.lower();
        },
        ::testing::ExitedWithCode(1), "no body");
}

} // namespace
} // namespace commguard
