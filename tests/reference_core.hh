/**
 * @file
 * A reference PPU core for differential tests of the interpreter.
 *
 * Written from docs/ISA.md ("Instructions" and "PPU protection
 * contract"), not from src/machine/core.cc: it executes one
 * instruction per step through one switch, checks the watchdog before
 * every step, and advances its own error injector one commit at a
 * time. There is no run budget, no fold and no dispatch table, so it
 * is slow and obviously complete. A whole invocation runs in one call;
 * a stalled push or pop is retried or timed out on the spot.
 */

#ifndef COMMGUARD_TESTS_REFERENCE_CORE_HH
#define COMMGUARD_TESTS_REFERENCE_CORE_HH

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "isa/program.hh"
#include "machine/comm_backend.hh"
#include "machine/core.hh"
#include "machine/error_injector.hh"
#include "machine/timing.hh"

namespace commguard::test
{

/** What a reference run reached, beyond the counters (test coverage). */
struct ReferenceReach
{
    std::array<Count, static_cast<std::size_t>(isa::Op::NumOps)> ops{};
    Count inRangeLoads = 0;
    Count wrappedLoads = 0;
    Count inRangeStores = 0;
    Count wrappedStores = 0;
    Count untrackedScopes = 0;  //!< ScopeEnters past maxScopeDepth.
};

class ReferenceCore
{
  public:
    /**
     * Load @p program (its data segment at address 0, the rest of
     * memory zero) on a core with the given contract parameters.
     */
    explicit ReferenceCore(const isa::Program &program,
                           const PpuConfig &ppu = {},
                           const TimingConfig &timing = {},
                           const ErrorInjector::Config &errors = {})
        : _program(program), _ppu(ppu), _timing(timing)
    {
        _memory.assign(program.memWords, 0);
        std::copy(program.data.begin(), program.data.end(),
                  _memory.begin());
        _injector.configure(errors);

        // Injection targets: every register any rd/rs1/rs2 field
        // names, except R0; R1 if there are none.
        std::array<bool, isa::numRegs> named{};
        for (const isa::Inst &inst : program.code)
            named[inst.rd] = named[inst.rs1] = named[inst.rs2] = true;
        for (int r = 1; r < isa::numRegs; ++r)
            if (named[r])
                _targets.push_back(static_cast<isa::Reg>(r));
        if (_targets.empty())
            _targets.push_back(1);
    }

    /**
     * Run one invocation to its end: Halt, or an invocation-watchdog
     * trip. Push and Pop go to @p backend. When it stalls, @p times_out
     * decides: true times the operation out (the QM timeout), false
     * retries it.
     */
    void
    runInvocation(CommBackend *backend = nullptr,
                  const std::function<bool()> &times_out = {})
    {
        _regs.fill(0);
        _pc = 0;
        _insts = 0;
        _scopes.clear();
        ++_counters.invocations;
        const Count est = _program.estimatedInstsPerInvocation;
        const Count base = est > 0 ? est * _ppu.watchdogMultiplier
                                   : _ppu.defaultScopeBudget;
        _budget = std::min(_ppu.maxScopeBudget,
                           std::max<Count>(1024, base));

        for (;;) {
            Count limit = _budget;
            if (!_scopes.empty())
                limit = std::min(limit, _scopes.back().deadline);
            if (_insts >= limit) {
                if (_insts >= _budget) {
                    ++_counters.scopeWatchdogTrips;
                    return;
                }
                // The forced ScopeExit below executes unchecked.
                ++_counters.nestedScopeTrips;
                _pc = static_cast<Count>(_scopes.back().exitPc);
            }
            if (!step(backend, times_out))
                return;
        }
    }

    /**
     * The software-queue exposure window a backend opens during a push
     * or pop: @p insts virtual instructions, each error in which
     * corrupts @p queue or flips a register with equal probability.
     */
    void
    exposeQueueWindow(Count insts, QueueBase &queue)
    {
        _counters.committedInsts += insts;
        _counters.cycles += insts;
        _insts += insts;
        _injector.advance(insts, [this, &queue] {
            Rng &rng = _injector.rng();
            if (rng.below(2) == 0)
                queue.corrupt(rng);
            else
                flipRegister();
        });
    }

    Word reg(isa::Reg r) const { return read(r); }
    const std::vector<Word> &memory() const { return _memory; }
    const CoreCounters &counters() const { return _counters; }
    Count errorsInjected() const { return _injector.errorsInjected(); }
    Count pc() const { return _pc; }
    const ReferenceReach &reach() const { return _reach; }

  private:
    struct Scope
    {
        Word id;
        std::int32_t exitPc;
        Count deadline;
    };

    Word read(isa::Reg r) const { return r == 0 ? 0 : _regs[r]; }

    void
    write(isa::Reg r, Word value)
    {
        if (r == 0)
            ADD_FAILURE() << "reference core: write to R0 at pc " << _pc;
        else
            _regs[r] = value;
    }

    /** rs1 + imm in 32-bit arithmetic, wrapped into memory. */
    Word
    address(const isa::Inst &inst, Count &in_range, Count &wrapped)
    {
        const Word sum = read(inst.rs1) + inst.imm;
        ++(sum < _memory.size() ? in_range : wrapped);
        return static_cast<Word>(sum % _memory.size());
    }

    void
    flipRegister()
    {
        Rng &rng = _injector.rng();
        const isa::Reg r =
            _injector.flipAllRegisters()
                ? static_cast<isa::Reg>(1 + rng.below(isa::numRegs - 1))
                : _targets[rng.below(
                      static_cast<std::uint32_t>(_targets.size()))];
        const int bit = static_cast<int>(rng.below(32));
        _regs[r] ^= Word{1} << bit;
        ++_counters.registerFlips;
    }

    /** Commit the current instruction; a due error fires after it. */
    void
    commit(Count next_pc, Cycle extra_cycles)
    {
        _pc = next_pc;
        ++_counters.committedInsts;
        _counters.cycles += 1 + extra_cycles;
        ++_insts;
        _injector.advance(1, [this] { flipRegister(); });
    }

    /** Execute the instruction at pc; false once Halt commits. */
    bool
    step(CommBackend *backend, const std::function<bool()> &times_out)
    {
        using isa::Op;
        const isa::Inst &inst = _program.code[_pc];
        ++_reach.ops[static_cast<std::size_t>(inst.op)];
        const Word a = read(inst.rs1);
        const Word b = read(inst.rs2);
        const SWord sa = static_cast<SWord>(a);
        const SWord sb = static_cast<SWord>(b);
        const float fa = wordToFloat(a);
        const float fb = wordToFloat(b);
        const Count taken = static_cast<Count>(inst.target);
        const int port = static_cast<int>(inst.imm);
        Count next = _pc + 1;
        Cycle extra = 0;

        if ((inst.op == Op::Push || inst.op == Op::Pop) &&
            backend == nullptr) {
            ADD_FAILURE() << "reference core: queue op without a backend";
            return false;
        }

        switch (inst.op) {
          case Op::Nop: break;
          case Op::Halt:
            commit(_pc, 0);
            return false;
          case Op::Li: write(inst.rd, inst.imm); break;

          case Op::Add: write(inst.rd, a + b); break;
          case Op::Sub: write(inst.rd, a - b); break;
          case Op::Mul: write(inst.rd, a * b); break;
          case Op::Divu: write(inst.rd, b ? a / b : 0); break;
          case Op::Divs:
            write(inst.rd,
                  sb ? static_cast<Word>(static_cast<SWord>(
                           static_cast<std::int64_t>(sa) / sb))
                     : 0);
            break;
          case Op::Remu: write(inst.rd, b ? a % b : 0); break;
          case Op::And: write(inst.rd, a & b); break;
          case Op::Or: write(inst.rd, a | b); break;
          case Op::Xor: write(inst.rd, a ^ b); break;
          case Op::Sll: write(inst.rd, a << (b & 31)); break;
          case Op::Srl: write(inst.rd, a >> (b & 31)); break;
          case Op::Sra:
            write(inst.rd, static_cast<Word>(sa >> (b & 31)));
            break;
          case Op::Slt: write(inst.rd, sa < sb ? 1 : 0); break;
          case Op::Sltu: write(inst.rd, a < b ? 1 : 0); break;
          case Op::Addi: write(inst.rd, a + inst.imm); break;
          case Op::Andi: write(inst.rd, a & inst.imm); break;
          case Op::Ori: write(inst.rd, a | inst.imm); break;
          case Op::Xori: write(inst.rd, a ^ inst.imm); break;
          case Op::Slli: write(inst.rd, a << (inst.imm & 31)); break;
          case Op::Srli: write(inst.rd, a >> (inst.imm & 31)); break;
          case Op::Srai:
            write(inst.rd, static_cast<Word>(sa >> (inst.imm & 31)));
            break;

          case Op::Fadd: write(inst.rd, floatToWord(fa + fb)); break;
          case Op::Fsub: write(inst.rd, floatToWord(fa - fb)); break;
          case Op::Fmul: write(inst.rd, floatToWord(fa * fb)); break;
          case Op::Fdiv: write(inst.rd, floatToWord(fa / fb)); break;
          case Op::Fsqrt:
            write(inst.rd,
                  floatToWord(fa >= 0.0f ? std::sqrt(fa) : 0.0f));
            break;
          case Op::Fabs: write(inst.rd, floatToWord(std::fabs(fa))); break;
          case Op::Fneg: write(inst.rd, floatToWord(-fa)); break;
          case Op::Fmin:
            // NaN yields the other operand; a tie keeps the first.
            write(inst.rd, floatToWord(fa != fa   ? fb
                                       : fb != fb ? fa
                                       : fb < fa  ? fb
                                                  : fa));
            break;
          case Op::Fmax:
            write(inst.rd, floatToWord(fa != fa   ? fb
                                       : fb != fb ? fa
                                       : fa < fb  ? fb
                                                  : fa));
            break;
          case Op::Cvtif:
            write(inst.rd, floatToWord(static_cast<float>(sa)));
            break;
          case Op::Cvtfi:
            write(inst.rd,
                  std::isfinite(fa) && fa >= -2147483648.0f &&
                          fa < 2147483648.0f
                      ? static_cast<Word>(static_cast<SWord>(fa))
                      : 0);
            break;
          case Op::Feq: write(inst.rd, fa == fb ? 1 : 0); break;
          case Op::Flt: write(inst.rd, fa < fb ? 1 : 0); break;
          case Op::Fle: write(inst.rd, fa <= fb ? 1 : 0); break;

          case Op::Beq: if (a == b) next = taken; break;
          case Op::Bne: if (a != b) next = taken; break;
          case Op::Blt: if (sa < sb) next = taken; break;
          case Op::Bge: if (sa >= sb) next = taken; break;
          case Op::Bltu: if (a < b) next = taken; break;
          case Op::Bgeu: if (a >= b) next = taken; break;
          case Op::Jmp: next = taken; break;

          case Op::Lw:
            write(inst.rd,
                  _memory[address(inst, _reach.inRangeLoads,
                                  _reach.wrappedLoads)]);
            ++_counters.loads;
            extra = _timing.memExtraCycles;
            break;
          case Op::Sw:
            _memory[address(inst, _reach.inRangeStores,
                            _reach.wrappedStores)] = b;
            ++_counters.stores;
            extra = _timing.memExtraCycles;
            break;

          case Op::Push:
            // Re-read the source on every attempt: nothing between two
            // attempts commits, but the contract does not promise it.
            while (backend->push(port, read(inst.rs2)) ==
                   QueueOpStatus::Blocked) {
                if (times_out()) {
                    backend->timeoutPush(port);
                    ++_counters.pushTimeouts;
                    break;
                }
            }
            ++_counters.queuePushes;
            extra = _timing.queueOpCycles;
            break;
          case Op::Pop: {
            BackendPopResult result = backend->pop(port);
            while (result.blocked) {
                if (times_out()) {
                    result = {false, backend->timeoutPop(port)};
                    ++_counters.popTimeouts;
                    break;
                }
                result = backend->pop(port);
            }
            write(inst.rd, result.value);
            ++_counters.queuePops;
            extra = _timing.queueOpCycles;
            break;
          }

          case Op::ScopeEnter:
            if (!_ppu.enforceNestedScopes)
                break;
            if (static_cast<int>(_scopes.size()) >= _ppu.maxScopeDepth) {
                ++_reach.untrackedScopes;
                break;
            }
            _scopes.push_back(
                {inst.imm, _program.scopes[inst.imm].exitPc,
                 _insts + std::max<Count>(
                              64, _program.scopes[inst.imm].estimatedInsts *
                                      _ppu.watchdogMultiplier)});
            break;
          case Op::ScopeExit:
            if (!_scopes.empty() && _scopes.back().id == inst.imm)
                _scopes.pop_back();
            break;

          default:
            ADD_FAILURE() << "reference core: no such opcode "
                          << static_cast<int>(inst.op);
            return false;
        }
        commit(next, extra);
        return true;
    }

    isa::Program _program;
    PpuConfig _ppu;
    TimingConfig _timing;
    ErrorInjector _injector;
    std::vector<isa::Reg> _targets;

    std::array<Word, isa::numRegs> _regs{};
    std::vector<Word> _memory;
    Count _pc = 0;
    Count _insts = 0;   //!< This invocation's count the watchdog reads.
    Count _budget = 0;  //!< This invocation's budget.
    std::vector<Scope> _scopes;  //!< Tracked activations, innermost last.

    CoreCounters _counters;
    ReferenceReach _reach;
};

} // namespace commguard::test

#endif // COMMGUARD_TESTS_REFERENCE_CORE_HH
