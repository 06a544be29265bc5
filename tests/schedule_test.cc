/**
 * @file
 * Tests for graph validation, the repetition-vector solver, and frame
 * analysis (paper §2.2, Fig. 2).
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "streamit/schedule.hh"

namespace commguard::streamit
{
namespace
{

/** Trivial program builder for structural tests. */
isa::Program
dummyProgram(int)
{
    isa::Assembler a("dummy");
    a.halt();
    return a.finalize();
}

FilterSpec
filter(const std::string &name, std::vector<int> pops,
       std::vector<int> pushes)
{
    return FilterSpec{name, std::move(pops), std::move(pushes),
                      dummyProgram};
}

StreamGraph
makeChain(const std::vector<std::pair<int, int>> &rates)
{
    // rates[i] = {pop, push} of node i.
    StreamGraph g;
    NodeId prev = -1;
    for (std::size_t i = 0; i < rates.size(); ++i) {
        std::string name = "n";
        name += std::to_string(i);
        const NodeId node = g.addFilter(
            filter(name, {rates[i].first}, {rates[i].second}));
        if (prev >= 0)
            g.connect(prev, 0, node, 0);
        prev = node;
    }
    g.setExternalInput(0, 0);
    g.setExternalOutput(prev, 0);
    return g;
}

// ----------------------------------------------------------------------
// Structure validation.
// ----------------------------------------------------------------------

TEST(GraphValidate, AcceptsSimpleChain)
{
    StreamGraph g = makeChain({{1, 2}, {2, 1}});
    EXPECT_EQ(g.validateStructure(), "");
}

TEST(GraphValidate, RejectsEmptyGraph)
{
    StreamGraph g;
    EXPECT_NE(g.validateStructure(), "");
}

TEST(GraphValidate, RejectsMissingExternalPorts)
{
    StreamGraph g;
    g.addFilter(filter("a", {1}, {1}));
    EXPECT_NE(g.validateStructure(), "");
}

TEST(GraphValidate, RejectsUnconnectedPort)
{
    StreamGraph g;
    const NodeId a = g.addFilter(filter("a", {1}, {1, 1}));
    const NodeId b = g.addFilter(filter("b", {1}, {1}));
    g.connect(a, 0, b, 0);
    g.setExternalInput(a, 0);
    g.setExternalOutput(b, 0);
    // a's output port 1 dangles.
    EXPECT_NE(g.validateStructure(), "");
}

TEST(GraphValidate, RejectsDoublyConnectedPort)
{
    StreamGraph g;
    const NodeId a = g.addFilter(filter("a", {1}, {1}));
    const NodeId b = g.addFilter(filter("b", {1}, {1}));
    g.connect(a, 0, b, 0);
    g.connect(a, 0, b, 0);
    g.setExternalInput(a, 0);
    g.setExternalOutput(b, 0);
    EXPECT_NE(g.validateStructure(), "");
}

TEST(GraphValidate, RejectsZeroRates)
{
    StreamGraph g;
    g.addFilter(filter("a", {0}, {1}));
    g.setExternalInput(0, 0);
    g.setExternalOutput(0, 0);
    EXPECT_NE(g.validateStructure(), "");
}

// ----------------------------------------------------------------------
// Repetition vector.
// ----------------------------------------------------------------------

TEST(Repetitions, UniformChainIsAllOnes)
{
    StreamGraph g = makeChain({{4, 4}, {4, 4}, {4, 4}});
    const RepetitionVector r = solveRepetitions(g);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.firings, (std::vector<Count>{1, 1, 1}));
}

TEST(Repetitions, RateChangeScalesFirings)
{
    // n0 pushes 2 per firing, n1 pops 6: n0 fires 3x per n1 firing.
    StreamGraph g = makeChain({{1, 2}, {6, 1}});
    const RepetitionVector r = solveRepetitions(g);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.firings, (std::vector<Count>{3, 1}));
}

TEST(Repetitions, RationalRatesFindSmallestIntegerVector)
{
    // 3 -> 2 rate conversion: firings 2 and 3.
    StreamGraph g = makeChain({{1, 3}, {2, 1}});
    const RepetitionVector r = solveRepetitions(g);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.firings, (std::vector<Count>{2, 3}));
}

TEST(Repetitions, SplitJoinBalances)
{
    // split pushes 1 to each branch per firing; branches 1->1; join
    // pops 1 from each.
    StreamGraph g;
    const NodeId split = g.addFilter(filter("split", {2}, {1, 1}));
    const NodeId bra = g.addFilter(filter("bra", {1}, {1}));
    const NodeId brb = g.addFilter(filter("brb", {1}, {1}));
    const NodeId join = g.addFilter(filter("join", {1, 1}, {2}));
    g.connect(split, 0, bra, 0);
    g.connect(split, 1, brb, 0);
    g.connect(bra, 0, join, 0);
    g.connect(brb, 0, join, 1);
    g.setExternalInput(split, 0);
    g.setExternalOutput(join, 0);

    const RepetitionVector r = solveRepetitions(g);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.firings, (std::vector<Count>{1, 1, 1, 1}));
}

TEST(Repetitions, UnbalancedSplitJoinDetected)
{
    // Branch a doubles items, branch b passes through: the join can
    // never balance -> inconsistent rates.
    StreamGraph g;
    const NodeId split = g.addFilter(filter("split", {2}, {1, 1}));
    const NodeId bra = g.addFilter(filter("bra", {1}, {2}));
    const NodeId brb = g.addFilter(filter("brb", {1}, {1}));
    const NodeId join = g.addFilter(filter("join", {1, 1}, {2}));
    g.connect(split, 0, bra, 0);
    g.connect(split, 1, brb, 0);
    g.connect(bra, 0, join, 0);
    g.connect(brb, 0, join, 1);
    g.setExternalInput(split, 0);
    g.setExternalOutput(join, 0);

    const RepetitionVector r = solveRepetitions(g);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("inconsistent"), std::string::npos);
}

TEST(Repetitions, DisconnectedGraphDetected)
{
    StreamGraph g;
    g.addFilter(filter("a", {1}, {1}));
    g.addFilter(filter("b", {1}, {1}));
    const RepetitionVector r = solveRepetitions(g);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.error.find("disconnected"), std::string::npos);
}

// ----------------------------------------------------------------------
// Frame analysis (paper Fig. 2: F6 pushes 192/firing, F7 pops 15360;
// 80 firings of F6 and 1 of F7 form one frame computation).
// ----------------------------------------------------------------------

TEST(FrameAnalysis, ReproducesPaperFig2Linkage)
{
    StreamGraph g = makeChain({{192, 192}, {15360, 15360}});
    const RepetitionVector r = solveRepetitions(g);
    ASSERT_TRUE(r.ok) << r.error;
    EXPECT_EQ(r.firings, (std::vector<Count>{80, 1}));

    const FrameAnalysis fa = analyzeFrames(g, r);
    EXPECT_EQ(fa.firingsPerFrame, (std::vector<Count>{80, 1}));
    ASSERT_EQ(fa.edgeItemsPerFrame.size(), 1u);
    EXPECT_EQ(fa.edgeItemsPerFrame[0], 15360u);
    EXPECT_EQ(fa.inputItemsPerFrame, 15360u);
    EXPECT_EQ(fa.outputItemsPerFrame, 15360u);
}

TEST(FrameAnalysis, MultiPortEdgesUseProducerRates)
{
    StreamGraph g;
    const NodeId split = g.addFilter(filter("split", {6}, {2, 4}));
    const NodeId a = g.addFilter(filter("a", {1}, {1}));
    const NodeId b = g.addFilter(filter("b", {2}, {1}));
    const NodeId join = g.addFilter(filter("join", {2, 2}, {4}));
    g.connect(split, 0, a, 0);
    g.connect(split, 1, b, 0);
    g.connect(a, 0, join, 0);
    g.connect(b, 0, join, 1);
    g.setExternalInput(split, 0);
    g.setExternalOutput(join, 0);

    const RepetitionVector r = solveRepetitions(g);
    ASSERT_TRUE(r.ok) << r.error;
    // split x1: 2 items to a (a fires 2x), 4 items to b (b fires 2x),
    // join pops 2+2 (fires 1x)... check balance: a pushes 2, b pushes
    // 2, join pops 2 from each -> join fires 1.
    EXPECT_EQ(r.firings, (std::vector<Count>{1, 2, 2, 1}));

    const FrameAnalysis fa = analyzeFrames(g, r);
    EXPECT_EQ(fa.edgeItemsPerFrame[0], 2u);
    EXPECT_EQ(fa.edgeItemsPerFrame[1], 4u);
    EXPECT_EQ(fa.inputItemsPerFrame, 6u);
    EXPECT_EQ(fa.outputItemsPerFrame, 4u);
}

} // namespace
} // namespace commguard::streamit
