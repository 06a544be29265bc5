/**
 * @file
 * Second differential suite: random programs *with memory and control
 * flow*. A structured generator emits nested bounded loops, forward
 * branches, and load/store traffic through random 32-bit addresses into
 * a 64-word memory, so nearly every access wraps; the reference core
 * (tests/reference_core.hh, with the same PPU contract: wrapped
 * addressing, benign traps) executes the same program. Register files
 * and data memory must match bit-exactly.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

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

constexpr std::size_t flowMemWords = 64;

/**
 * Structured random program: a few registers of setup, then nested
 * bounded loops whose bodies mix ALU, memory traffic, and forward
 * conditional skips.
 */
Program
makeFlowProgram(Rng &rng)
{
    Assembler a("flow");
    a.setMemWords(flowMemWords);
    a.reserve(flowMemWords);

    int label_id = 0;
    for (Reg r = 1; r <= 8; ++r)
        a.li(r, rng.next32());

    const int outer_loops = 1 + static_cast<int>(rng.below(3));
    for (int l = 0; l < outer_loops; ++l) {
        const Word outer_n = 2 + rng.below(6);
        a.forDown(R20, outer_n, [&] {
            // Memory op with a register-dependent (wrapping) address.
            a.sw(static_cast<Reg>(1 + rng.below(8)),
                 static_cast<Reg>(1 + rng.below(8)),
                 static_cast<SWord>(rng.below(256)));
            a.lw(static_cast<Reg>(9 + rng.below(4)),
                 static_cast<Reg>(1 + rng.below(8)),
                 static_cast<SWord>(rng.below(256)));

            // Inner loop of cheap ALU work.
            const Word inner_n = 1 + rng.below(5);
            a.forDown(R21, inner_n, [&] {
                a.add(static_cast<Reg>(1 + rng.below(8)),
                      static_cast<Reg>(1 + rng.below(12)),
                      static_cast<Reg>(1 + rng.below(12)));
                a.xor_(static_cast<Reg>(9 + rng.below(4)),
                       static_cast<Reg>(1 + rng.below(12)),
                       static_cast<Reg>(1 + rng.below(12)));
            });

            // Forward conditional skip over a mutation.
            const std::string skip =
                "skip" + std::to_string(label_id++);
            const Reg x = static_cast<Reg>(1 + rng.below(12));
            const Reg y = static_cast<Reg>(1 + rng.below(12));
            switch (rng.below(3)) {
              case 0: a.beq(x, y, skip); break;
              case 1: a.blt(x, y, skip); break;
              default: a.bgeu(x, y, skip); break;
            }
            a.addi(static_cast<Reg>(1 + rng.below(8)),
                   static_cast<Reg>(1 + rng.below(8)),
                   static_cast<SWord>(rng.below(17)) - 8);
            a.label(skip);
        });
    }
    a.halt();
    return a.finalize();
}

class FlowDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(FlowDifferential, RegistersAndMemoryMatchOracle)
{
    Rng rng(GetParam() * 104729u + 3);
    const Program program = makeFlowProgram(rng);
    ASSERT_TRUE(validate(program).ok);

    PpuConfig ppu;
    ppu.defaultScopeBudget = 2'000'000;
    test::ReferenceCore reference(program, ppu);
    reference.runInvocation();
    ASSERT_EQ(reference.counters().scopeWatchdogTrips, 0u)
        << "reference did not halt";

    Multicore machine;
    machine.config().ppu = ppu;
    Core &core = machine.addCore("flow");
    core.setProgram(program);
    CommBackend &backend = machine.addBackend(
        std::make_unique<RawBackend>(std::vector<QueueBase *>{},
                                     std::vector<QueueBase *>{}));
    machine.addRuntime(core, backend, 1);
    ASSERT_TRUE(machine.run().completed);

    EXPECT_EQ(core.counters().committedInsts,
              reference.counters().committedInsts);
    for (int r = 0; r < numRegs; ++r) {
        EXPECT_EQ(core.regs().read(static_cast<Reg>(r)),
                  reference.reg(static_cast<Reg>(r)))
            << "register r" << r;
    }
    ASSERT_EQ(core.memory().size(), reference.memory().size());
    for (std::size_t i = 0; i < reference.memory().size(); ++i) {
        EXPECT_EQ(core.memory()[i], reference.memory()[i])
            << "memory word " << i;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FlowDifferential,
                         ::testing::Range(0, 24));

} // namespace
} // namespace commguard
