/**
 * @file
 * Architectural register file of a simulated core.
 *
 * Thirty-two 32-bit registers; R0 is hardwired to zero. Nothing ever
 * writes or flips it, so it needs no check here: isa::validate rejects
 * every instruction that writes R0 (Core::setProgram panics on such a
 * program), and the error injector never targets it — a hardwired zero
 * has no storage to flip.
 */

#ifndef COMMGUARD_MACHINE_REGISTER_FILE_HH
#define COMMGUARD_MACHINE_REGISTER_FILE_HH

#include <array>

#include "common/types.hh"
#include "isa/inst.hh"

namespace commguard
{

/**
 * The error-prone architectural register file.
 */
class RegisterFile
{
  public:
    /** Read a register; R0 reads as zero. */
    Word
    read(isa::Reg reg) const
    {
        return _regs[reg];
    }

    /**
     * Write a register. @p reg is never R0: it is the destination of a
     * validated instruction (see the file comment).
     */
    void
    write(isa::Reg reg, Word value)
    {
        _regs[reg] = value;
    }

    /**
     * Flip one bit of a register (error injection). @p reg is never R0:
     * Core::flipRandomRegisterBit picks from R1-R31.
     */
    void
    flipBit(isa::Reg reg, int bit)
    {
        _regs[reg] ^= Word{1} << bit;
    }

    /** Zero every register (invocation start). */
    void
    clear()
    {
        _regs.fill(0);
    }

  private:
    std::array<Word, isa::numRegs> _regs{};
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_REGISTER_FILE_HH
