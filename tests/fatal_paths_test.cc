/**
 * @file
 * Death tests for the library's fatal() paths: authoring mistakes
 * (malformed programs, bad graphs, unknown benchmarks) must fail fast
 * with a diagnostic instead of producing a silently broken simulation.
 */

#include <gtest/gtest.h>

#include "apps/app.hh"
#include "commguard/alignment_manager.hh"
#include "common/ecc.hh"
#include "isa/assembler.hh"
#include "kernels/basic.hh"
#include "machine/core.hh"
#include "queue/working_set_queue.hh"
#include "streamit/loader.hh"

namespace commguard
{
namespace
{

using namespace isa;

TEST(FatalPaths, DuplicateLabelDies)
{
    EXPECT_EXIT(
        {
            Assembler a("dup");
            a.label("x");
            a.label("x");
        },
        ::testing::ExitedWithCode(1), "duplicate label");
}

TEST(FatalPaths, UndefinedLabelDies)
{
    EXPECT_EXIT(
        {
            Assembler a("undef");
            a.jmp("nowhere");
            a.finalize();
        },
        ::testing::ExitedWithCode(1), "undefined label");
}

TEST(FatalPaths, ZeroCountLoopDies)
{
    EXPECT_EXIT(
        {
            Assembler a("zl");
            a.forDown(R1, 0, [] {});
        },
        ::testing::ExitedWithCode(1), "zero count");
}

TEST(FatalPaths, UnbalancedScopeExitDies)
{
    EXPECT_EXIT(
        {
            Assembler a("sx");
            a.scopeExit();
        },
        ::testing::ExitedWithCode(1), "scopeExit without");
}

TEST(FatalPaths, UnclosedScopeDies)
{
    EXPECT_EXIT(
        {
            Assembler a("so");
            a.scopeEnter(10);
            a.finalize();
        },
        ::testing::ExitedWithCode(1), "unclosed scope");
}

TEST(FatalPaths, DoubleFinalizeDies)
{
    EXPECT_EXIT(
        {
            Assembler a("df");
            a.halt();
            a.finalize();
            a.finalize();
        },
        ::testing::ExitedWithCode(1), "finalize called twice");
}

TEST(FatalPaths, ZeroMemWordsDiesAtFinalize)
{
    EXPECT_EXIT(
        {
            Assembler a("m0");
            a.setMemWords(0);
            a.li(R1, 5);
            a.lw(R2, R1, 0);
            a.finalize();
        },
        ::testing::ExitedWithCode(1), "local memory of 0 words");
}

TEST(FatalPaths, CoreRejectsUnvalidatedMemWords)
{
    // A program that bypassed validate() must not reach the
    // interpreter's 32-bit address wrap.
    Program p;
    p.name = "m0";
    p.memWords = 0;
    EXPECT_DEATH(Core(0, "c").setProgram(p), "memory words");
}

/** A hand-built program: @p inst, then Halt. */
Program
handBuilt(const Inst &inst)
{
    Program p;
    p.name = "hand";
    p.code.push_back(inst);
    p.code.push_back(Inst{Op::Halt});
    return p;
}

TEST(FatalPaths, CoreRejectsInvalidOpcode)
{
    // run() dispatches through a table with one entry per opcode.
    Inst inst;
    inst.op = static_cast<Op>(200);
    EXPECT_DEATH(Core(0, "c").setProgram(handBuilt(inst)),
                 "invalid opcode");
}

TEST(FatalPaths, CoreRejectsRegisterIndexOutOfRange)
{
    // The register file is a 32-entry array.
    Inst inst;
    inst.op = Op::Addi;
    inst.rd = 40;
    inst.rs1 = 1;
    EXPECT_DEATH(Core(0, "c").setProgram(handBuilt(inst)),
                 "register index out of range");
}

TEST(FatalPaths, CoreRejectsJumpPastTheEnd)
{
    Inst inst;
    inst.op = Op::Jmp;
    inst.target = 2;
    EXPECT_DEATH(Core(0, "c").setProgram(handBuilt(inst)),
                 "branch target outside code");
}

TEST(FatalPaths, CoreRejectsCodeThatRunsPastItsEnd)
{
    // validate() accepts it; run() would fall through past the last
    // instruction.
    Program p;
    p.name = "tail";
    Inst inst;
    inst.op = Op::Li;
    inst.rd = 1;
    p.code.push_back(inst);
    ASSERT_TRUE(validate(p).ok);
    EXPECT_DEATH(Core(0, "c").setProgram(p),
                 "runs past its last instruction");
}

TEST(FatalPaths, EccFlipBitOutsideTheCodewordDies)
{
    // Shifting by 64 or more, or by a negative count, is undefined; a
    // container bit in 39..63 would be seen only by overall parity.
    const EccWord code = eccEncode(0x1234u);
    for (const int bit : {-1, eccCodewordBits, 64}) {
        EXPECT_DEATH(eccFlipBit(code, bit), "outside the 39-bit codeword")
            << "bit " << bit;
    }
}

/** A header for @p frame whose codeword has @p flips bits flipped. */
QueueWord
damagedHeader(FrameId frame, int flips)
{
    QueueWord header = makeHeader(frame);
    for (int i = 0; i < flips; ++i)
        header.ecc = eccFlipBit(header.ecc, 3 + 17 * i);
    return header;
}

TEST(FatalPaths, HeaderThatFailsItsEccCheckDies)
{
    // Headers are never injected with errors, so the queue manager
    // treats any decode that is not Clean as a simulator bug instead of
    // handing a wrong frame ID to the alignment manager.
    for (const int flips : {2, 1}) {
        CgCounters counters;
        WorkingSetQueue queue("q", 16);
        QueueManager qm(queue, counters);
        AlignmentManager am(counters);
        am.onNewFrameComputation(1);
        ASSERT_EQ(am.state(), AmState::ExpHdr);
        ASSERT_EQ(queue.tryPush(damagedHeader(1, flips)), QueueOpStatus::Ok);
        EXPECT_DEATH(am.onPop(qm, 1), flips == 2
                                          ? "uncorrectable ECC error"
                                          : "needed an ECC correction")
            << flips << " flips";
    }
}

TEST(FatalPaths, UnknownBenchmarkDies)
{
    EXPECT_EXIT(apps::makeAppByName("quake"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(FatalPaths, LoadingInvalidGraphDies)
{
    EXPECT_EXIT(
        {
            streamit::StreamGraph g;  // Empty: no filters, no I/O.
            streamit::LoadOptions options;
            streamit::loadGraph(g, {}, 1, options);
        },
        ::testing::ExitedWithCode(1), "loadGraph");
}

TEST(FatalPaths, InconsistentRatesDieAtLoad)
{
    EXPECT_EXIT(
        {
            streamit::StreamGraph g;
            // Producer pushes 3/firing, consumer pops 2/firing, but a
            // second edge pins their rates inconsistently.
            const streamit::NodeId a = g.addFilter(
                {"a", {1}, {3, 1}, [](int f) {
                     return kernels::buildPassthrough("a", 1, f);
                 }});
            const streamit::NodeId b = g.addFilter(
                {"b", {3, 2}, {1}, [](int f) {
                     return kernels::buildPassthrough("b", 1, f);
                 }});
            g.connect(a, 0, b, 0);
            g.connect(a, 1, b, 1);
            g.setExternalInput(a, 0);
            g.setExternalOutput(b, 0);
            streamit::LoadOptions options;
            streamit::loadGraph(g, {}, 1, options);
        },
        ::testing::ExitedWithCode(1), "inconsistent");
}

} // namespace
} // namespace commguard
