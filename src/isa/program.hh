/**
 * @file
 * A loadable program: code, initial data segment, and port counts.
 *
 * One Program implements one filter's *frame computation*: the body loops
 * over the filter's firings-per-frame (with the loop counter living in an
 * error-prone register, exactly the coarse scope structure of paper §4.4)
 * and communicates through numbered input/output ports. The reliable
 * runtime invokes the program once per frame computation.
 */

#ifndef COMMGUARD_ISA_PROGRAM_HH
#define COMMGUARD_ISA_PROGRAM_HH

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/inst.hh"

namespace commguard::isa
{

/** One nested control-flow scope (paper SS4.4). */
struct ScopeInfo
{
    /** Static estimate of dynamic instructions inside the scope. */
    Count estimatedInsts = 0;

    /** PC of the matching ScopeExit instruction. */
    std::int32_t exitPc = -1;
};

/**
 * Largest core-local memory, in words: the interpreter wraps load and
 * store addresses in 32-bit arithmetic.
 */
constexpr std::size_t maxMemWords = 0xffffffffu;

/** A validated, loadable unit of filter code. */
struct Program
{
    std::string name;

    /** Instruction stream (stored reliably; never error-injected). */
    std::vector<Inst> code;

    /**
     * Initial data segment, copied to the base of core-local memory when
     * the program is loaded (coefficient tables, window functions, ...).
     * Loading is a reliable operation.
     */
    std::vector<Word> data;

    /**
     * Core-local memory size in words: in [1, maxMemWords] and large
     * enough to hold the data segment.
     */
    std::size_t memWords = 1u << 16;

    /** Number of input (pop) ports the code references. */
    int numInPorts = 0;

    /** Number of output (push) ports the code references. */
    int numOutPorts = 0;

    /**
     * Static estimate of dynamic instructions per invocation, set by the
     * assembler user; the PPU guard derives its per-scope watchdog budget
     * from this. Zero means "unknown", letting the guard fall back to a
     * machine-level default.
     */
    Count estimatedInstsPerInvocation = 0;

    /** Nested scopes declared by the program (indexed by imm of
     *  ScopeEnter/ScopeExit). */
    std::vector<ScopeInfo> scopes;
};

/**
 * Validation result: empty message means the program is well-formed.
 */
struct ValidationResult
{
    bool ok = true;
    std::string message;
};

/**
 * Statically validate a program: register indices in range, branch
 * targets inside the code, ports within the declared counts, memory
 * size in [1, maxMemWords], data segment within memory.
 */
ValidationResult validate(const Program &prog);

/** Render the program as human-readable assembly. */
std::string disassemble(const Program &prog);

/** Render a single instruction. */
std::string disassemble(const Inst &inst);

} // namespace commguard::isa

#endif // COMMGUARD_ISA_PROGRAM_HH
