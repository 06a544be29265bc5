/**
 * @file
 * Tests for the assembler EDSL, program validation, and disassembly.
 */

#include <gtest/gtest.h>

#include "isa/assembler.hh"
#include "isa/program.hh"

namespace commguard::isa
{
namespace
{

TEST(Assembler, EmitsHaltIfMissing)
{
    Assembler a("t");
    a.li(R1, 5);
    const Program p = a.finalize();
    ASSERT_FALSE(p.code.empty());
    EXPECT_EQ(p.code.back().op, Op::Halt);
}

TEST(Assembler, KeepsExplicitHalt)
{
    Assembler a("t");
    a.halt();
    const Program p = a.finalize();
    EXPECT_EQ(p.code.size(), 1u);
}

TEST(Assembler, ForwardLabelResolves)
{
    Assembler a("t");
    a.jmp("end");
    a.li(R1, 1);
    a.label("end");
    a.halt();
    const Program p = a.finalize();
    EXPECT_EQ(p.code[0].op, Op::Jmp);
    EXPECT_EQ(p.code[0].target, 2);
}

TEST(Assembler, BackwardLabelResolves)
{
    Assembler a("t");
    a.label("top");
    a.addi(R1, R1, 1);
    a.bne(R1, R2, "top");
    const Program p = a.finalize();
    EXPECT_EQ(p.code[1].target, 0);
}

TEST(Assembler, DataAllocationIsSequential)
{
    Assembler a("t");
    const Word w0 = a.dataWords({1, 2, 3});
    const Word f0 = a.dataFloats({1.5f});
    const Word r0 = a.reserve(4);
    EXPECT_EQ(w0, 0u);
    EXPECT_EQ(f0, 3u);
    EXPECT_EQ(r0, 4u);
    const Program p = a.finalize();
    ASSERT_EQ(p.data.size(), 8u);
    EXPECT_EQ(p.data[0], 1u);
    EXPECT_EQ(p.data[3], floatToWord(1.5f));
    EXPECT_EQ(p.data[7], 0u);
}

TEST(Assembler, MemWordsGrowsToFitData)
{
    Assembler a("t");
    a.setMemWords(2);
    a.reserve(100);
    const Program p = a.finalize();
    EXPECT_GE(p.memWords, 100u);
}

TEST(Assembler, PortsAreCounted)
{
    Assembler a("t");
    a.pop(R1, 2);
    a.push(1, R1);
    const Program p = a.finalize();
    EXPECT_EQ(p.numInPorts, 3);
    EXPECT_EQ(p.numOutPorts, 2);
}

TEST(Assembler, ForDownRunsBodyNTimes)
{
    Assembler a("t");
    int emitted = 0;
    a.forDown(R30, 5, [&] {
        ++emitted;
        a.addi(R1, R1, 1);
    });
    EXPECT_EQ(emitted, 1);  // Body is emitted once, looped at runtime.
    const Program p = a.finalize();
    // li + body + addi(dec) + bne + halt.
    EXPECT_EQ(p.code.size(), 5u);
}

TEST(Assembler, LifEncodesFloatBits)
{
    Assembler a("t");
    a.lif(R1, 3.25f);
    const Program p = a.finalize();
    EXPECT_EQ(p.code[0].imm, floatToWord(3.25f));
}

// ----------------------------------------------------------------------
// Static validation.
// ----------------------------------------------------------------------

TEST(Validate, AcceptsWellFormed)
{
    Assembler a("t");
    a.li(R1, 1);
    a.push(0, R1);
    const Program p = a.finalize();
    EXPECT_TRUE(validate(p).ok);
}

TEST(Validate, RejectsBranchOutsideCode)
{
    Program p;
    p.name = "bad";
    Inst j;
    j.op = Op::Jmp;
    j.target = 99;
    p.code.push_back(j);
    const ValidationResult r = validate(p);
    EXPECT_FALSE(r.ok);
    EXPECT_NE(r.message.find("branch target"), std::string::npos);
}

TEST(Validate, RejectsUndeclaredPort)
{
    Program p;
    p.name = "bad";
    Inst pop;
    pop.op = Op::Pop;
    pop.rd = 1;
    pop.imm = 3;
    p.code.push_back(pop);
    p.numInPorts = 2;
    EXPECT_FALSE(validate(p).ok);
}

TEST(Validate, RejectsWriteToR0)
{
    Program p;
    p.name = "bad";
    Inst add;
    add.op = Op::Add;
    add.rd = 0;
    add.rs1 = 1;
    add.rs2 = 2;
    p.code.push_back(add);
    EXPECT_FALSE(validate(p).ok);
}

TEST(Validate, RejectsOversizedData)
{
    Program p;
    p.name = "bad";
    p.data.assign(64, 0);
    p.memWords = 8;
    EXPECT_FALSE(validate(p).ok);
}

TEST(Validate, RejectsZeroOrOver32BitMemWords)
{
    // The interpreter wraps addresses with a 32-bit remainder: zero
    // words would divide by zero, more than 2^32 - 1 would truncate.
    Program p;
    p.name = "mem";
    p.memWords = 0;
    const ValidationResult zero = validate(p);
    EXPECT_FALSE(zero.ok);
    EXPECT_NE(zero.message.find("local memory"), std::string::npos);
    p.memWords = maxMemWords + 1;
    EXPECT_FALSE(validate(p).ok);
    p.memWords = maxMemWords;
    EXPECT_TRUE(validate(p).ok);
    p.memWords = 1;
    EXPECT_TRUE(validate(p).ok);
}

// ----------------------------------------------------------------------
// Disassembly.
// ----------------------------------------------------------------------

TEST(Disassemble, RendersCommonForms)
{
    Assembler a("t");
    a.li(R1, 42);
    a.add(R3, R1, R2);
    a.lw(R4, R1, 16);
    a.sw(R4, R1, -4);
    a.push(1, R4);
    a.pop(R5, 0);
    a.label("x");
    a.beq(R1, R2, "x");
    const Program p = a.finalize();
    const std::string text = disassemble(p);
    EXPECT_NE(text.find("li r1, 42"), std::string::npos);
    EXPECT_NE(text.find("add r3, r1, r2"), std::string::npos);
    EXPECT_NE(text.find("lw r4, 16(r1)"), std::string::npos);
    EXPECT_NE(text.find("sw r4, -4(r1)"), std::string::npos);
    EXPECT_NE(text.find("push port1, r4"), std::string::npos);
    EXPECT_NE(text.find("pop r5, port0"), std::string::npos);
    EXPECT_NE(text.find("beq r1, r2, @6"), std::string::npos);
}

TEST(Disassemble, HeaderListsGeometry)
{
    Assembler a("geo");
    a.pop(R1, 0);
    a.push(0, R1);
    const Program p = a.finalize();
    const std::string text = disassemble(p);
    EXPECT_NE(text.find("program geo"), std::string::npos);
    EXPECT_NE(text.find("1 in, 1 out"), std::string::npos);
}

} // namespace
} // namespace commguard::isa
