/**
 * @file
 * Opcode-level semantics of the core interpreter: every ALU/FP/branch
 * operation is swept against host arithmetic on random operands, and
 * the PPU safety contract (address wrap, div-by-zero, bad conversion)
 * is checked explicitly.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <memory>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"

namespace commguard
{
namespace
{

using namespace isa;

/** Run a queue-less program for one invocation; exposes the core. */
class InterpTest : public ::testing::Test
{
  protected:
    Core &
    exec(Program program)
    {
        _machine = std::make_unique<Multicore>();
        Core &core = _machine->addCore("t");
        core.setProgram(std::move(program));
        CommBackend &backend = _machine->addBackend(
            std::make_unique<RawBackend>(
                std::vector<QueueBase *>{},
                std::vector<QueueBase *>{}));
        _machine->addRuntime(core, backend, 1);
        const MachineRunResult result = _machine->run();
        EXPECT_TRUE(result.completed);
        return core;
    }

    std::unique_ptr<Multicore> _machine;
};

// ----------------------------------------------------------------------
// Integer register-register operations (property sweep).
// ----------------------------------------------------------------------

struct IntOpCase
{
    const char *name;
    void (Assembler::*emit)(Reg, Reg, Reg);
    std::function<Word(Word, Word)> eval;
};

const IntOpCase intOpCases[] = {
    {"add", &Assembler::add,
     [](Word a, Word b) { return a + b; }},
    {"sub", &Assembler::sub,
     [](Word a, Word b) { return a - b; }},
    {"mul", &Assembler::mul,
     [](Word a, Word b) { return a * b; }},
    {"divu", &Assembler::divu,
     [](Word a, Word b) { return b ? a / b : 0; }},
    {"divs", &Assembler::divs,
     [](Word a, Word b) {
         const SWord sa = static_cast<SWord>(a);
         const SWord sb = static_cast<SWord>(b);
         if (sb == 0)
             return Word{0};
         return static_cast<Word>(static_cast<SWord>(
             static_cast<std::int64_t>(sa) / sb));
     }},
    {"remu", &Assembler::remu,
     [](Word a, Word b) { return b ? a % b : 0; }},
    {"and", &Assembler::and_,
     [](Word a, Word b) { return a & b; }},
    {"or", &Assembler::or_,
     [](Word a, Word b) { return a | b; }},
    {"xor", &Assembler::xor_,
     [](Word a, Word b) { return a ^ b; }},
    {"sll", &Assembler::sll,
     [](Word a, Word b) { return a << (b & 31); }},
    {"srl", &Assembler::srl,
     [](Word a, Word b) { return a >> (b & 31); }},
    {"sra", &Assembler::sra,
     [](Word a, Word b) {
         return static_cast<Word>(static_cast<SWord>(a) >> (b & 31));
     }},
    {"slt", &Assembler::slt,
     [](Word a, Word b) {
         return static_cast<SWord>(a) < static_cast<SWord>(b) ? 1u
                                                              : 0u;
     }},
    {"sltu", &Assembler::sltu,
     [](Word a, Word b) { return a < b ? 1u : 0u; }},
};

class IntOps : public InterpTest,
               public ::testing::WithParamInterface<std::size_t>
{
};

TEST_P(IntOps, MatchesHostSemantics)
{
    const IntOpCase &c = intOpCases[GetParam()];
    Rng rng(31337 + GetParam());
    for (int i = 0; i < 40; ++i) {
        Word a_val = rng.next32();
        Word b_val = rng.next32();
        if (i < 4) {
            // Force interesting corners.
            a_val = (i & 1) ? 0x80000000u : 0xffffffffu;
            b_val = (i & 2) ? 0 : 0xffffffffu;
        }

        Assembler a("op");
        a.li(R1, a_val);
        a.li(R2, b_val);
        (a.*(c.emit))(R3, R1, R2);
        Core &core = exec(a.finalize());
        EXPECT_EQ(core.regs().read(R3), c.eval(a_val, b_val))
            << c.name << "(" << a_val << ", " << b_val << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllIntOps, IntOps,
    ::testing::Range<std::size_t>(0, std::size(intOpCases)),
    [](const auto &info) {
        return std::string(intOpCases[info.param].name);
    });

// ----------------------------------------------------------------------
// Floating point operations (bit-exact vs host).
// ----------------------------------------------------------------------

struct FloatOpCase
{
    const char *name;
    void (Assembler::*emit)(Reg, Reg, Reg);
    std::function<float(float, float)> eval;
};

const FloatOpCase floatOpCases[] = {
    {"fadd", &Assembler::fadd,
     [](float a, float b) { return a + b; }},
    {"fsub", &Assembler::fsub,
     [](float a, float b) { return a - b; }},
    {"fmul", &Assembler::fmul,
     [](float a, float b) { return a * b; }},
    {"fdiv", &Assembler::fdiv,
     [](float a, float b) { return a / b; }},
    {"fmin", &Assembler::fmin,
     [](float a, float b) { return isaFmin(a, b); }},
    {"fmax", &Assembler::fmax,
     [](float a, float b) { return isaFmax(a, b); }},
};

class FloatOps : public InterpTest,
                 public ::testing::WithParamInterface<std::size_t>
{
};

TEST_P(FloatOps, MatchesHostBits)
{
    const FloatOpCase &c = floatOpCases[GetParam()];
    Rng rng(99 + GetParam());
    for (int i = 0; i < 40; ++i) {
        const float a_val =
            (static_cast<float>(rng.uniform()) - 0.5f) * 2000.0f;
        const float b_val =
            (static_cast<float>(rng.uniform()) - 0.5f) * 2000.0f;

        Assembler a("fop");
        a.lif(R1, a_val);
        a.lif(R2, b_val);
        (a.*(c.emit))(R3, R1, R2);
        Core &core = exec(a.finalize());
        EXPECT_EQ(core.regs().read(R3),
                  floatToWord(c.eval(a_val, b_val)))
            << c.name << "(" << a_val << ", " << b_val << ")";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFloatOps, FloatOps,
    ::testing::Range<std::size_t>(0, std::size(floatOpCases)),
    [](const auto &info) {
        return std::string(floatOpCases[info.param].name);
    });

TEST_F(InterpTest, FloatUnaries)
{
    Assembler a("fu");
    a.lif(R1, 6.25f);
    a.fsqrt(R2, R1);
    a.lif(R3, -4.5f);
    a.fabs_(R4, R3);
    a.fneg(R5, R3);
    a.li(R6, static_cast<Word>(-17));
    a.cvtif(R7, R6);
    a.lif(R8, 3.9f);
    a.cvtfi(R9, R8);
    a.lif(R10, -3.9f);
    a.cvtfi(R11, R10);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R2), floatToWord(2.5f));
    EXPECT_EQ(core.regs().read(R4), floatToWord(4.5f));
    EXPECT_EQ(core.regs().read(R5), floatToWord(4.5f));
    EXPECT_EQ(core.regs().read(R7), floatToWord(-17.0f));
    EXPECT_EQ(core.regs().read(R9), 3u);
    EXPECT_EQ(static_cast<SWord>(core.regs().read(R11)), -3);
}

TEST_F(InterpTest, FloatCompares)
{
    Assembler a("fc");
    a.lif(R1, 1.0f);
    a.lif(R2, 2.0f);
    a.flt(R3, R1, R2);
    a.flt(R4, R2, R1);
    a.fle(R5, R1, R1);
    a.feq(R6, R1, R1);
    a.feq(R7, R1, R2);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R3), 1u);
    EXPECT_EQ(core.regs().read(R4), 0u);
    EXPECT_EQ(core.regs().read(R5), 1u);
    EXPECT_EQ(core.regs().read(R6), 1u);
    EXPECT_EQ(core.regs().read(R7), 0u);
}

// ----------------------------------------------------------------------
// PPU safety contract.
// ----------------------------------------------------------------------

TEST_F(InterpTest, SqrtOfNegativeIsZero)
{
    Assembler a("s");
    a.lif(R1, -1.0f);
    a.fsqrt(R2, R1);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R2), floatToWord(0.0f));
}

TEST_F(InterpTest, CvtfiOfNanAndHugeIsZero)
{
    Assembler a("c");
    a.li(R1, 0x7fc00000u);  // NaN
    a.cvtfi(R2, R1);
    a.lif(R3, 1e20f);
    a.cvtfi(R4, R3);
    a.lif(R5, -1e20f);
    a.cvtfi(R6, R5);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R2), 0u);
    EXPECT_EQ(core.regs().read(R4), 0u);
    EXPECT_EQ(core.regs().read(R6), 0u);
}

TEST_F(InterpTest, MemoryAddressesWrap)
{
    Assembler a("m");
    a.setMemWords(16);
    a.li(R1, 100);  // 100 % 16 == 4
    a.li(R2, 0xabcd);
    a.sw(R2, R1, 0);
    a.li(R3, 4);
    a.lw(R4, R3, 0);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R4), 0xabcdu);

    // The boundaries of the wrap, at a power-of-two size and at an odd
    // one: the last word, one past it, two sizes past it, and the top
    // of the 32-bit range (through a negative offset). Each address is
    // stored to and loaded from, and must land on the host's remainder.
    for (const Word mem_words : {Word{16}, Word{777}}) {
        struct Case
        {
            Word base;
            SWord offset;
        };
        const Case cases[] = {
            {mem_words - 1, 0},
            {mem_words, 0},
            {2 * mem_words + 3, 0},
            {2, -3},  // 0xFFFFFFFF
        };
        Assembler w("wrap");
        w.setMemWords(mem_words);
        for (Reg i = 0; i < 4; ++i) {
            const Case &c = cases[i];
            const Word host = (c.base + static_cast<Word>(c.offset)) %
                              mem_words;
            // Store through the wrapped address, load from the host's.
            w.li(R1, c.base);
            w.li(R2, 0x1000 + i);
            w.sw(R2, R1, c.offset);
            w.li(R3, host);
            w.lw(static_cast<Reg>(R10 + i), R3, 0);
            // Store at the host's address, load through the wrapped one.
            w.li(R2, 0x2000 + i);
            w.sw(R2, R3, 0);
            w.lw(static_cast<Reg>(R20 + i), R1, c.offset);
        }
        Core &wrapped = exec(w.finalize());
        for (Reg i = 0; i < 4; ++i) {
            SCOPED_TRACE(testing::Message()
                         << "memWords " << mem_words << ", address "
                         << cases[i].base +
                                static_cast<Word>(cases[i].offset));
            EXPECT_EQ(wrapped.regs().read(static_cast<Reg>(R10 + i)),
                      0x1000u + i);
            EXPECT_EQ(wrapped.regs().read(static_cast<Reg>(R20 + i)),
                      0x2000u + i);
        }
    }
}

TEST_F(InterpTest, NegativeOffsetAddressing)
{
    Assembler a("m2");
    a.li(R1, 8);
    a.li(R2, 77);
    a.sw(R2, R1, -3);  // Address 5.
    a.li(R3, 5);
    a.lw(R4, R3, 0);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R4), 77u);
}

TEST_F(InterpTest, DataSegmentIsLoaded)
{
    Assembler a("d");
    const Word base = a.dataWords({11, 22, 33});
    a.li(R1, base + 2);
    a.lw(R2, R1, 0);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R2), 33u);
}

TEST_F(InterpTest, R0ReadsZeroAndIgnoresWrites)
{
    Assembler a("z");
    a.li(R1, 5);
    // mov through R0: result must be 0 regardless of R1.
    a.add(R2, R0, R0);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R2), 0u);
    EXPECT_EQ(core.regs().read(R0), 0u);
}

TEST_F(InterpTest, BranchesFollowSigns)
{
    Assembler a("b");
    a.li(R1, static_cast<Word>(-1));  // 0xffffffff
    a.li(R2, 1);
    a.li(R3, 0);
    a.blt(R1, R2, "signed_taken");
    a.li(R3, 99);  // Skipped: -1 < 1 signed.
    a.label("signed_taken");
    a.li(R4, 0);
    a.bltu(R1, R2, "unsigned_taken");
    a.li(R4, 7);  // Executed: 0xffffffff is not < 1 unsigned.
    a.label("unsigned_taken");
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R3), 0u);
    EXPECT_EQ(core.regs().read(R4), 7u);
}

TEST_F(InterpTest, ForDownLoopCountsExactly)
{
    Assembler a("l");
    a.li(R1, 0);
    a.forDown(R30, 37, [&] { a.addi(R1, R1, 1); });
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R1), 37u);
}

TEST_F(InterpTest, WatchdogForcesRunawayScopeToComplete)
{
    Assembler a("w");
    a.label("spin");
    a.addi(R1, R1, 1);
    a.jmp("spin");
    a.setEstimatedInsts(100);
    Core &core = exec(a.finalize());  // exec asserts completion.
    EXPECT_EQ(core.counters().scopeWatchdogTrips, 1u);
    // Budget = estimate * multiplier (8), floored at 1024.
    EXPECT_LE(core.counters().committedInsts, 2048u);
}

TEST_F(InterpTest, ImmediateAluForms)
{
    Assembler a("i");
    a.li(R1, 10);
    a.addi(R2, R1, -3);
    a.andi(R3, R1, 6);
    a.ori(R4, R1, 5);
    a.xori(R5, R1, 0xff);
    a.slli(R6, R1, 2);
    a.srli(R7, R1, 1);
    a.li(R8, static_cast<Word>(-8));
    a.srai(R9, R8, 1);
    Core &core = exec(a.finalize());
    EXPECT_EQ(core.regs().read(R2), 7u);
    EXPECT_EQ(core.regs().read(R3), 2u);
    EXPECT_EQ(core.regs().read(R4), 15u);
    EXPECT_EQ(core.regs().read(R5), 245u);
    EXPECT_EQ(core.regs().read(R6), 40u);
    EXPECT_EQ(core.regs().read(R7), 5u);
    EXPECT_EQ(static_cast<SWord>(core.regs().read(R9)), -4);
}

} // namespace
} // namespace commguard
