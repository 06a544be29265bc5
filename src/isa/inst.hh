/**
 * @file
 * Instruction set of the simulated partially-protected cores.
 *
 * A compact 32-bit load/store ISA standing in for the paper's 32-bit x86
 * baseline (§6). Thirty-two general registers hold 32-bit words; floating
 * point operations reinterpret register bits as IEEE-754 singles, so the
 * register-file bit-flip error injector uniformly produces data,
 * addressing, and control-flow errors. StreamIt communication appears as
 * ISA-visible PUSH/POP operations on filter-local ports (the paper's
 * hardware push/pop instructions carrying a queue identifier, §4).
 */

#ifndef COMMGUARD_ISA_INST_HH
#define COMMGUARD_ISA_INST_HH

#include <cstdint>
#include <string>

#include "common/types.hh"

namespace commguard::isa
{

/** Number of architectural registers; R0 is hardwired to zero. */
constexpr int numRegs = 32;

/** Register name. R0 reads as zero; validate() rejects writes to it. */
using Reg = std::uint8_t;

/** Operation codes. */
enum class Op : std::uint8_t
{
    Nop,
    Halt,       //!< End of the current frame-computation invocation.

    Li,         //!< rd = imm (32-bit immediate load).

    // Integer ALU, register-register.
    Add, Sub, Mul, Divu, Divs, Remu,
    And, Or, Xor, Sll, Srl, Sra,
    Slt, Sltu,

    // Integer ALU, register-immediate.
    Addi, Andi, Ori, Xori, Slli, Srli, Srai,

    // Floating point (IEEE-754 single reinterpretation).
    Fadd, Fsub, Fmul, Fdiv, Fsqrt, Fabs, Fneg, Fmin, Fmax,
    Cvtif,      //!< rd = float(signed rs1)
    Cvtfi,      //!< rd = trunc-to-int(float rs1); NaN/overflow -> 0
    Feq, Flt, Fle,  //!< rd = (rs1 OP rs2) ? 1 : 0 on float views.

    // Control flow. Branch targets are immediates (instructions are
    // stored reliably; only register values are error-prone).
    Beq, Bne, Blt, Bge, Bltu, Bgeu,
    Jmp,

    // Core-local memory. Address = rs1 + imm, wrapped by the PPU guard.
    Lw,         //!< rd = mem[rs1 + imm]
    Sw,         //!< mem[rs1 + imm] = rs2

    // Streaming communication on filter-local ports (imm = port).
    Push,       //!< push rs2 to output port imm
    Pop,        //!< rd = pop from input port imm

    // Guided execution management (paper SS4.4): nested control-flow
    // scopes with per-scope instruction budgets, enforced by the
    // reliable PPU module. imm = index into Program::scopes.
    ScopeEnter,
    ScopeExit,

    NumOps
};

/** One decoded instruction. */
struct Inst
{
    Op op = Op::Nop;
    Reg rd = 0;
    Reg rs1 = 0;
    Reg rs2 = 0;
    Word imm = 0;       //!< Immediate / memory offset / port number.
    std::int32_t target = 0;  //!< Branch/jump target (instruction index).
};

/** Mnemonic for an opcode (for the disassembler and error messages). */
const char *opName(Op op);

/**
 * The ISA's *defined* float-min semantics (Fmin): if either operand is
 * NaN the other is returned; otherwise b < a ? b : a (so for a +-0.0
 * tie the FIRST operand is returned). std::fmin leaves the signed-zero
 * tie unspecified, which would make simulation results depend on the
 * host compiler; the ISA pins it down.
 */
inline float
isaFmin(float a, float b)
{
    if (a != a)
        return b;
    if (b != b)
        return a;
    return b < a ? b : a;
}

/** Defined float-max semantics (Fmax); mirror of isaFmin. */
inline float
isaFmax(float a, float b)
{
    if (a != a)
        return b;
    if (b != b)
        return a;
    return a < b ? b : a;
}

/** True for Lw/Sw (used by the timing model's memory-event accounting). */
bool isMemoryOp(Op op);

/** True for Push/Pop. */
bool isQueueOp(Op op);

/** True for any branch or jump. */
bool isControlOp(Op op);

} // namespace commguard::isa

#endif // COMMGUARD_ISA_INST_HH
