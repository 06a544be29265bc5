/**
 * @file
 * Differential testing of the interpreter: random straight-line
 * programs over the integer/float ALU are executed both by the Core
 * and by the reference core (tests/reference_core.hh), written
 * directly against the ISA's semantic definitions. Any divergence is an
 * interpreter bug.
 */

#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "reference_core.hh"

namespace commguard
{
namespace
{

using namespace isa;

/** Ops the generator may emit (no control flow/memory/queues). */
const Op generatorOps[] = {
    Op::Li,   Op::Add,  Op::Sub,  Op::Mul,  Op::Divu, Op::Divs,
    Op::Remu, Op::And,  Op::Or,   Op::Xor,  Op::Sll,  Op::Srl,
    Op::Sra,  Op::Slt,  Op::Sltu, Op::Addi, Op::Andi, Op::Ori,
    Op::Xori, Op::Slli, Op::Srli, Op::Srai, Op::Fadd, Op::Fsub,
    Op::Fmul, Op::Fdiv, Op::Fsqrt, Op::Fabs, Op::Fneg, Op::Fmin,
    Op::Fmax, Op::Cvtif, Op::Cvtfi, Op::Feq, Op::Flt, Op::Fle,
};

class Differential : public ::testing::TestWithParam<int>
{
};

TEST_P(Differential, RandomProgramMatchesOracle)
{
    Rng rng(GetParam() * 48271u + 1);

    // Generate the instruction sequence.
    std::vector<Inst> body;
    const int length = 64 + static_cast<int>(rng.below(192));
    for (int i = 0; i < length; ++i) {
        Inst inst;
        inst.op = generatorOps[rng.below(std::size(generatorOps))];
        inst.rd = static_cast<Reg>(1 + rng.below(numRegs - 1));
        inst.rs1 = static_cast<Reg>(rng.below(numRegs));
        inst.rs2 = static_cast<Reg>(rng.below(numRegs));
        // Mix of small and full-range immediates.
        inst.imm = rng.below(2) ? rng.below(64) : rng.next32();
        body.push_back(inst);
    }

    // Seed some registers so the first ops have varied inputs.
    Program program;
    program.name = "diff";
    for (Reg r = 1; r <= 12; ++r) {
        Inst li;
        li.op = Op::Li;
        li.rd = r;
        li.imm = rng.next32();
        program.code.push_back(li);
    }
    program.code.insert(program.code.end(), body.begin(), body.end());
    Inst halt;
    halt.op = Op::Halt;
    program.code.push_back(halt);
    ASSERT_TRUE(validate(program).ok);

    // Reference pass.
    test::ReferenceCore reference(program);
    reference.runInvocation();

    // Interpreter pass.
    Multicore machine;
    Core &core = machine.addCore("diff");
    core.setProgram(program);
    CommBackend &backend = machine.addBackend(
        std::make_unique<RawBackend>(std::vector<QueueBase *>{},
                                     std::vector<QueueBase *>{}));
    machine.addRuntime(core, backend, 1);
    ASSERT_TRUE(machine.run().completed);

    // Bit-exact register file comparison (NaNs compare as bits).
    for (int r = 0; r < numRegs; ++r) {
        EXPECT_EQ(core.regs().read(static_cast<Reg>(r)),
                  reference.reg(static_cast<Reg>(r)))
            << "register r" << r;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, Differential, ::testing::Range(0, 32));

} // namespace
} // namespace commguard
