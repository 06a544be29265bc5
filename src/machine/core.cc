#include "machine/core.hh"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <iterator>

#include "common/logging.hh"

namespace commguard
{

using isa::Inst;
using isa::Op;

Core::Core(CoreId id, std::string name) : _id(id), _name(std::move(name))
{
}

Core::~Core()
{
    if (_memoryPool != nullptr && _memory.capacity() != 0)
        _memoryPool->release(std::move(_memory));
}

void
Core::setProgram(isa::Program program)
{
    // run() wraps addresses in 32-bit arithmetic (isa::validate).
    if (program.memWords == 0 || program.memWords > isa::maxMemWords)
        panic("core " + _name + ": program " + program.name +
              " needs 1.." + std::to_string(isa::maxMemWords) +
              " memory words, has " + std::to_string(program.memWords));
    // run() trusts the code: it dispatches on the opcode byte through a
    // table, indexes the register file by the register fields and jumps
    // to branch targets unchecked, and falls through to pc + 1.
    const isa::ValidationResult valid = isa::validate(program);
    if (!valid.ok)
        panic("core " + _name + ": " + valid.message);
    if (program.code.empty() || (program.code.back().op != Op::Halt &&
                                 program.code.back().op != Op::Jmp))
        panic("core " + _name + ": program " + program.name +
              " runs past its last instruction");
    _program = std::move(program);
    // Core-local memory is the largest per-run allocation (512 KiB at
    // the default memWords); acquiring it from the per-worker pool
    // keeps parallel sweeps out of the allocator's mmap path. Either
    // way the memory starts fully zeroed.
    if (_memoryPool != nullptr && _memory.capacity() == 0)
        _memory = _memoryPool->acquire(_program.memWords);
    else
        _memory.assign(_program.memWords, 0);
    std::copy(_program.data.begin(), _program.data.end(),
              _memory.begin());

    // Collect the architectural registers this program references;
    // they are the live register file the injector targets.
    bool used[isa::numRegs] = {};
    for (const Inst &inst : _program.code) {
        used[inst.rd] = true;
        used[inst.rs1] = true;
        used[inst.rs2] = true;
    }
    _usedRegs.clear();
    for (int r = 1; r < isa::numRegs; ++r)
        if (used[r])
            _usedRegs.push_back(static_cast<isa::Reg>(r));
    if (_usedRegs.empty())
        _usedRegs.push_back(1);
}

void
Core::setBackend(CommBackend *backend)
{
    _backend = backend;
    if (backend)
        backend->bindCore(this);
}

void
Core::configureInjector(const ErrorInjector::Config &config)
{
    _injector.configure(config);
    reloadErrorCountdown();
}

void
Core::setPpu(const PpuConfig &ppu)
{
    _ppu = ppu;
}

void
Core::startInvocation()
{
    _pc = 0;
    _instsThisInvocation = 0;
    _regs.clear();
    _blocked = false;
    _scopeStack.clear();
    _storeJournal.clear();
    ++_counters.invocations;
    if (_trace)
        _trace->onInvocationStart(*this);

    const Count est = _program.estimatedInstsPerInvocation;
    Count budget = est > 0 ? est * _ppu.watchdogMultiplier
                           : _ppu.defaultScopeBudget;
    if (budget < 1024)
        budget = 1024;
    if (budget > _ppu.maxScopeBudget)
        budget = _ppu.maxScopeBudget;
    _scopeBudget = budget;
}

void
Core::flipRandomRegisterBit()
{
    Rng &rng = _injector.rng();
    isa::Reg reg;
    if (_injector.flipAllRegisters()) {
        reg = static_cast<isa::Reg>(1 + rng.below(isa::numRegs - 1));
    } else {
        reg = _usedRegs[rng.below(
            static_cast<std::uint32_t>(_usedRegs.size()))];
    }
    const int bit = static_cast<int>(rng.below(32));
    _regs.flipBit(reg, bit);
    ++_counters.registerFlips;
    if (_trace)
        _trace->onErrorInjected(*this, reg, bit);
}

inline void
Core::fold(Count n, Cycle extra_cycles)
{
    _counters.committedInsts += n;
    _counters.cycles += n + extra_cycles;
    _instsThisInvocation += n;
    _errorCountdown -= n;
    if (_errorCountdown == 0) [[unlikely]]
        syncScheduledErrors();
}

inline void
Core::commit(Cycle extra_cycles, Count next_pc)
{
    _pc = next_pc;
    fold(1, extra_cycles);
}

inline Count
Core::watchdogLimit() const
{
    if (!_scopeStack.empty() && _scopeStack.back().deadline < _scopeBudget)
        return _scopeStack.back().deadline;
    return _scopeBudget;
}

void
Core::syncScheduledErrors()
{
    _injector.advance(_errorCountdownReload,
                      [this] { flipRandomRegisterBit(); });
    reloadErrorCountdown();
}

void
Core::resolveBlockedPop(Word value)
{
    if (!_blocked || !_blockedIsPop)
        panic("resolveBlockedPop on a core not blocked on pop");
    const Inst &inst = _program.code[_pc];
    _regs.write(inst.rd, value);
    ++_counters.queuePops;
    ++_counters.popTimeouts;
    if (_trace != nullptr) [[unlikely]] {
        _trace->onQueueUnblock(*this, _blockedPort, true);
        _trace->onPopTimeout(*this, _blockedPort);
        _trace->onQueuePop(*this, _blockedPort);
    }
    _blocked = false;
    commit(_timing.queueOpCycles, _pc + 1);
}

void
Core::resolveBlockedPush()
{
    if (!_blocked || _blockedIsPop)
        panic("resolveBlockedPush on a core not blocked on push");
    ++_counters.queuePushes;
    ++_counters.pushTimeouts;
    if (_trace != nullptr) [[unlikely]] {
        _trace->onQueueUnblock(*this, _blockedPort, false);
        _trace->onPushTimeout(*this, _blockedPort);
        _trace->onQueuePush(*this, _blockedPort);
    }
    _blocked = false;
    commit(_timing.queueOpCycles, _pc + 1);
}

void
Core::rollbackInvocationStores()
{
    Word *const mem = _memory.data();
    for (auto it = _storeJournal.rbegin(); it != _storeJournal.rend();
         ++it)
        mem[it->first] = it->second;
    _storeJournal.clear();
}

void
Core::exposeQueueWindow(Count insts, QueueBase &queue)
{
    _counters.committedInsts += insts;
    _counters.cycles += insts;
    // The routine executes inside the current frame computation: its
    // virtual instructions count against the PPU scope budget, so a
    // long software-queue window cannot bypass watchdog accounting.
    _instsThisInvocation += insts;

    // Flush commits the fast-path countdown has absorbed since the
    // last sync; none of them is past the next scheduled error, so no
    // flip can fire here.
    _injector.advance(_errorCountdownReload - _errorCountdown,
                      [this] { flipRandomRegisterBit(); });
    _injector.advance(insts, [this, &queue] {
        Rng &rng = _injector.rng();
        // The software routine's live registers are roughly half
        // queue-management state (head/tail/item) and half other
        // thread state.
        if (rng.below(2) == 0) {
            queue.corrupt(rng);
            if (_trace != nullptr) [[unlikely]]
                _trace->onQueueCorrupt(*this, queue);
        } else {
            flipRandomRegisterBit();
        }
    });
    reloadErrorCountdown();
}

RunResult
Core::run(Count max_steps)
{
    if (_backend == nullptr)
        panic("core " + _name + " has no communication backend");

    // Threaded dispatch: one handler address per opcode, in Op order.
    // setProgram() admits only validated programs, so every opcode
    // byte indexes this table. Run-ending instructions share the one
    // exit into the run-ending switch below.
    static const void *const dispatch[] = {
        &&op_nop,  &&run_ends,  // Nop, Halt
        &&op_li,
        &&op_add,  &&op_sub,  &&op_mul,  &&op_divu, &&op_divs, &&op_remu,
        &&op_and,  &&op_or,   &&op_xor,  &&op_sll,  &&op_srl,  &&op_sra,
        &&op_slt,  &&op_sltu,
        &&op_addi, &&op_andi, &&op_ori,  &&op_xori, &&op_slli, &&op_srli,
        &&op_srai,
        &&op_fadd, &&op_fsub, &&op_fmul, &&op_fdiv, &&op_fsqrt,
        &&op_fabs, &&op_fneg, &&op_fmin, &&op_fmax,
        &&op_cvtif, &&op_cvtfi,
        &&op_feq,  &&op_flt,  &&op_fle,
        &&op_beq,  &&op_bne,  &&op_blt,  &&op_bge,  &&op_bltu, &&op_bgeu,
        &&op_jmp,
        &&op_lw,   &&op_sw,
        &&run_ends, &&run_ends,  // Push, Pop
        &&run_ends, &&run_ends,  // ScopeEnter, ScopeExit
    };
    static_assert(std::size(dispatch) ==
                  static_cast<std::size_t>(Op::NumOps));

    // Hot-loop locals: the program, memory, their sizes and the store
    // journal switch are fixed for the whole slice, so keep them out of
    // member-load territory. setProgram() bounds memWords to
    // [1, 2^32 - 1], so the 32-bit remainder below equals the
    // full-width one.
    const Inst *const code = _program.code.data();
    Word *const mem = _memory.data();
    const Word mem_words = static_cast<Word>(_memory.size());
    const bool journal_stores = _journalStores;

    // The slice's commits; everything else is counted in the members.
    Count executed = 0;
    Count limit = watchdogLimit();

    while (executed < max_steps) {
        if (_instsThisInvocation >= limit) [[unlikely]] {
            if (_instsThisInvocation >= _scopeBudget) {
                // PPU watchdog: the scope ran too long (e.g., a
                // corrupted loop counter); force the frame computation
                // to complete.
                ++_counters.scopeWatchdogTrips;
                if (_trace != nullptr) [[unlikely]]
                    _trace->onWatchdogTrip(*this, false);
                return {RunStatus::Done, executed};
            }

            // Nested scope watchdog (paper SS4.4): force the innermost
            // over-budget scope to its exit. The jump target is a
            // static ScopeExit instruction, so the stack unwinds
            // naturally.
            ++_counters.nestedScopeTrips;
            if (_trace != nullptr) [[unlikely]] {
                _trace->onWatchdogTrip(*this, true);
                // A queue op blocked at the old PC is abandoned with
                // its scope.
                if (_blocked)
                    _trace->onQueueUnblock(*this, _blockedPort,
                                           _blockedIsPop);
            }
            _pc = static_cast<Count>(_scopeStack.back().exitPc);
            _blocked = false;
            limit = watchdogLimit();
        }

        // The run's budget: how many commits can pass before a
        // per-commit check could fire (slice end, watchdog, scheduled
        // error). Right after a nested trip the forced ScopeExit still
        // executes before the next check, even past an outer limit.
        // Every term is at least 1, so the run's first instruction
        // needs no check.
        const Count room = _instsThisInvocation < limit
                               ? limit - _instsThisInvocation
                               : 1;
        const Count budget =
            std::min({max_steps - executed, room, _errorCountdown});

        // The run: straight-line instructions until the budget is spent
        // or a run-ending instruction comes up. Its only bookkeeping is
        // the cursor, the run length and the memory-op counts, all
        // scalar locals that fold into the members once, at the run's
        // end (DESIGN.md §6b codegen caution). Every handler ends in its
        // own latch: move the cursor (a taken branch sets it to the
        // target), count, stop at the budget, and dispatch the next
        // opcode (DESIGN.md §6b).
        const Inst *ip = code + _pc;
        Count n = 0;
        Count loads = 0;
        Count stores = 0;
        bool ends_run = false;

// The empty asm emits nothing; its distinct operand keeps GCC's
// cross-jumping from merging the handlers' identical latches back into
// one shared dispatch jump, as it does at -O2 and -O3.
#define CG_DISPATCH()                                                   \
    do {                                                                \
        asm volatile("" : : "n"(__COUNTER__));                          \
        goto *dispatch[static_cast<std::size_t>(ip->op)];               \
    } while (0)
#define CG_GOTO(next)                                                   \
    do {                                                                \
        ip = (next);                                                    \
        if (++n == budget) [[unlikely]]                                 \
            goto run_done;                                              \
        CG_DISPATCH();                                                  \
    } while (0)
#define CG_NEXT() CG_GOTO(ip + 1)
#define CG_BRANCH(taken) CG_GOTO((taken) ? code + ip->target : ip + 1)

        CG_DISPATCH();

      op_nop:
        CG_NEXT();

      op_li:
        _regs.write(ip->rd, ip->imm);
        CG_NEXT();

        // ----------------------------------------------------------
        // Integer ALU.
        // ----------------------------------------------------------
      op_add:
        _regs.write(ip->rd, _regs.read(ip->rs1) + _regs.read(ip->rs2));
        CG_NEXT();
      op_sub:
        _regs.write(ip->rd, _regs.read(ip->rs1) - _regs.read(ip->rs2));
        CG_NEXT();
      op_mul:
        _regs.write(ip->rd, _regs.read(ip->rs1) * _regs.read(ip->rs2));
        CG_NEXT();
      op_divu: {
        const Word den = _regs.read(ip->rs2);
        // PPU contract: divide-by-zero yields a benign 0.
        _regs.write(ip->rd, den ? _regs.read(ip->rs1) / den : 0);
        CG_NEXT();
      }
      op_divs: {
        const SWord num = static_cast<SWord>(_regs.read(ip->rs1));
        const SWord den = static_cast<SWord>(_regs.read(ip->rs2));
        SWord result = 0;
        if (den != 0) {
            // Avoid the INT_MIN / -1 overflow trap.
            result = static_cast<SWord>(
                static_cast<std::int64_t>(num) / den);
        }
        _regs.write(ip->rd, static_cast<Word>(result));
        CG_NEXT();
      }
      op_remu: {
        const Word den = _regs.read(ip->rs2);
        _regs.write(ip->rd, den ? _regs.read(ip->rs1) % den : 0);
        CG_NEXT();
      }
      op_and:
        _regs.write(ip->rd, _regs.read(ip->rs1) & _regs.read(ip->rs2));
        CG_NEXT();
      op_or:
        _regs.write(ip->rd, _regs.read(ip->rs1) | _regs.read(ip->rs2));
        CG_NEXT();
      op_xor:
        _regs.write(ip->rd, _regs.read(ip->rs1) ^ _regs.read(ip->rs2));
        CG_NEXT();
      op_sll:
        _regs.write(ip->rd, _regs.read(ip->rs1)
                                << (_regs.read(ip->rs2) & 31));
        CG_NEXT();
      op_srl:
        _regs.write(ip->rd, _regs.read(ip->rs1) >>
                                (_regs.read(ip->rs2) & 31));
        CG_NEXT();
      op_sra:
        _regs.write(ip->rd,
                    static_cast<Word>(
                        static_cast<SWord>(_regs.read(ip->rs1)) >>
                        (_regs.read(ip->rs2) & 31)));
        CG_NEXT();
      op_slt:
        _regs.write(ip->rd,
                    static_cast<SWord>(_regs.read(ip->rs1)) <
                            static_cast<SWord>(_regs.read(ip->rs2))
                        ? 1 : 0);
        CG_NEXT();
      op_sltu:
        _regs.write(ip->rd,
                    _regs.read(ip->rs1) < _regs.read(ip->rs2) ? 1 : 0);
        CG_NEXT();

      op_addi:
        _regs.write(ip->rd, _regs.read(ip->rs1) + ip->imm);
        CG_NEXT();
      op_andi:
        _regs.write(ip->rd, _regs.read(ip->rs1) & ip->imm);
        CG_NEXT();
      op_ori:
        _regs.write(ip->rd, _regs.read(ip->rs1) | ip->imm);
        CG_NEXT();
      op_xori:
        _regs.write(ip->rd, _regs.read(ip->rs1) ^ ip->imm);
        CG_NEXT();
      op_slli:
        _regs.write(ip->rd, _regs.read(ip->rs1) << (ip->imm & 31));
        CG_NEXT();
      op_srli:
        _regs.write(ip->rd, _regs.read(ip->rs1) >> (ip->imm & 31));
        CG_NEXT();
      op_srai:
        _regs.write(ip->rd,
                    static_cast<Word>(
                        static_cast<SWord>(_regs.read(ip->rs1)) >>
                        (ip->imm & 31)));
        CG_NEXT();

        // ----------------------------------------------------------
        // Floating point.
        // ----------------------------------------------------------
      op_fadd:
        _regs.write(ip->rd,
                    floatToWord(wordToFloat(_regs.read(ip->rs1)) +
                                wordToFloat(_regs.read(ip->rs2))));
        CG_NEXT();
      op_fsub:
        _regs.write(ip->rd,
                    floatToWord(wordToFloat(_regs.read(ip->rs1)) -
                                wordToFloat(_regs.read(ip->rs2))));
        CG_NEXT();
      op_fmul:
        _regs.write(ip->rd,
                    floatToWord(wordToFloat(_regs.read(ip->rs1)) *
                                wordToFloat(_regs.read(ip->rs2))));
        CG_NEXT();
      op_fdiv:
        _regs.write(ip->rd,
                    floatToWord(wordToFloat(_regs.read(ip->rs1)) /
                                wordToFloat(_regs.read(ip->rs2))));
        CG_NEXT();
      op_fsqrt: {
        const float x = wordToFloat(_regs.read(ip->rs1));
        // PPU contract: sqrt of a negative yields 0, not a trap.
        _regs.write(ip->rd, floatToWord(x >= 0.0f ? std::sqrt(x) : 0.0f));
        CG_NEXT();
      }
      op_fabs:
        _regs.write(ip->rd, floatToWord(std::fabs(
                                wordToFloat(_regs.read(ip->rs1)))));
        CG_NEXT();
      op_fneg:
        _regs.write(ip->rd,
                    floatToWord(-wordToFloat(_regs.read(ip->rs1))));
        CG_NEXT();
      op_fmin:
        _regs.write(ip->rd,
                    floatToWord(isa::isaFmin(
                        wordToFloat(_regs.read(ip->rs1)),
                        wordToFloat(_regs.read(ip->rs2)))));
        CG_NEXT();
      op_fmax:
        _regs.write(ip->rd,
                    floatToWord(isa::isaFmax(
                        wordToFloat(_regs.read(ip->rs1)),
                        wordToFloat(_regs.read(ip->rs2)))));
        CG_NEXT();
      op_cvtif:
        _regs.write(ip->rd,
                    floatToWord(static_cast<float>(
                        static_cast<SWord>(_regs.read(ip->rs1)))));
        CG_NEXT();
      op_cvtfi: {
        const float x = wordToFloat(_regs.read(ip->rs1));
        SWord result = 0;
        // PPU contract: invalid conversions yield a benign 0.
        if (std::isfinite(x) && x >= -2147483648.0f &&
            x <= 2147483520.0f) {
            result = static_cast<SWord>(x);
        }
        _regs.write(ip->rd, static_cast<Word>(result));
        CG_NEXT();
      }
      op_feq:
        _regs.write(ip->rd, wordToFloat(_regs.read(ip->rs1)) ==
                                    wordToFloat(_regs.read(ip->rs2))
                                ? 1 : 0);
        CG_NEXT();
      op_flt:
        _regs.write(ip->rd, wordToFloat(_regs.read(ip->rs1)) <
                                    wordToFloat(_regs.read(ip->rs2))
                                ? 1 : 0);
        CG_NEXT();
      op_fle:
        _regs.write(ip->rd, wordToFloat(_regs.read(ip->rs1)) <=
                                    wordToFloat(_regs.read(ip->rs2))
                                ? 1 : 0);
        CG_NEXT();

        // ----------------------------------------------------------
        // Control flow.
        // ----------------------------------------------------------
      op_beq:
        CG_BRANCH(_regs.read(ip->rs1) == _regs.read(ip->rs2));
      op_bne:
        CG_BRANCH(_regs.read(ip->rs1) != _regs.read(ip->rs2));
      op_blt:
        CG_BRANCH(static_cast<SWord>(_regs.read(ip->rs1)) <
                  static_cast<SWord>(_regs.read(ip->rs2)));
      op_bge:
        CG_BRANCH(static_cast<SWord>(_regs.read(ip->rs1)) >=
                  static_cast<SWord>(_regs.read(ip->rs2)));
      op_bltu:
        CG_BRANCH(_regs.read(ip->rs1) < _regs.read(ip->rs2));
      op_bgeu:
        CG_BRANCH(_regs.read(ip->rs1) >= _regs.read(ip->rs2));
      op_jmp:
        CG_GOTO(code + ip->target);

        // ----------------------------------------------------------
        // Memory (addresses wrap: the PPU never faults). An in-range
        // address is its own remainder, so only an address past the
        // end pays for the divide.
        // ----------------------------------------------------------
      op_lw: {
        Word addr = _regs.read(ip->rs1) + ip->imm;
        if (addr >= mem_words) [[unlikely]]
            addr %= mem_words;
        _regs.write(ip->rd, mem[addr]);
        ++loads;
        CG_NEXT();
      }
      op_sw: {
        Word addr = _regs.read(ip->rs1) + ip->imm;
        if (addr >= mem_words) [[unlikely]]
            addr %= mem_words;
        if (journal_stores) [[unlikely]]
            _storeJournal.emplace_back(addr, mem[addr]);
        mem[addr] = _regs.read(ip->rs2);
        ++stores;
        CG_NEXT();
      }

#undef CG_BRANCH
#undef CG_NEXT
#undef CG_GOTO
#undef CG_DISPATCH

      run_ends:
        // Halt, queue and scope instructions end the run before they
        // execute.
        ends_run = true;
      run_done:
        // Fold the run into the members once.
        _counters.loads += loads;
        _counters.stores += stores;
        _pc = static_cast<Count>(ip - code);
        executed += n;
        fold(n, (loads + stores) * _timing.memExtraCycles);
        if (!ends_run)
            continue;

        // The run-ending instruction at _pc, committed on its own.
        const Inst &inst = *ip;
        const Count next_pc = _pc + 1;
        switch (inst.op) {
          case Op::Halt:
            commit(0, _pc);
            return {RunStatus::Done, executed + 1};

          // ----------------------------------------------------------
          // Streaming communication.
          // ----------------------------------------------------------
          case Op::Push: {
            const int port = static_cast<int>(inst.imm);
            const QueueOpStatus status =
                _backend->push(port, _regs.read(inst.rs2));
            if (status == QueueOpStatus::Blocked) {
                if (_trace != nullptr && !_blocked) [[unlikely]]
                    _trace->onQueueBlock(*this, port, false);
                _blocked = true;
                _blockedIsPop = false;
                _blockedPort = port;
                return {RunStatus::Blocked, executed};
            }
            if (_trace != nullptr) [[unlikely]] {
                if (_blocked)
                    _trace->onQueueUnblock(*this, port, false);
                _trace->onQueuePush(*this, port);
            }
            _blocked = false;
            ++_counters.queuePushes;
            commit(_timing.queueOpCycles, next_pc);
            break;
          }
          case Op::Pop: {
            const int port = static_cast<int>(inst.imm);
            const BackendPopResult result = _backend->pop(port);
            if (result.blocked) {
                if (_trace != nullptr && !_blocked) [[unlikely]]
                    _trace->onQueueBlock(*this, port, true);
                _blocked = true;
                _blockedIsPop = true;
                _blockedPort = port;
                return {RunStatus::Blocked, executed};
            }
            if (_trace != nullptr) [[unlikely]] {
                if (_blocked)
                    _trace->onQueueUnblock(*this, port, true);
                _trace->onQueuePop(*this, port);
            }
            _blocked = false;
            _regs.write(inst.rd, result.value);
            ++_counters.queuePops;
            commit(_timing.queueOpCycles, next_pc);
            break;
          }

          // ----------------------------------------------------------
          // Nested scopes: both move the watchdog limit.
          // ----------------------------------------------------------
          case Op::ScopeEnter: {
            if (_ppu.enforceNestedScopes &&
                static_cast<int>(_scopeStack.size()) <
                    _ppu.maxScopeDepth) {
                const isa::ScopeInfo &info = _program.scopes[inst.imm];
                Count scope_budget = info.estimatedInsts *
                                     _ppu.watchdogMultiplier;
                if (scope_budget < 64)
                    scope_budget = 64;
                _scopeStack.push_back(ScopeFrame{
                    inst.imm, info.exitPc,
                    _instsThisInvocation + scope_budget});
                limit = watchdogLimit();
            }
            commit(0, next_pc);
            break;
          }
          case Op::ScopeExit:
            // Pop only the matching activation: exits of scopes that
            // were beyond the tracked depth fall through harmlessly.
            if (!_scopeStack.empty() &&
                _scopeStack.back().id == inst.imm) {
                _scopeStack.pop_back();
                limit = watchdogLimit();
            }
            commit(0, next_pc);
            break;

          default:
            panic("core " + _name + ": " + isa::opName(inst.op) +
                  " does not end a run");
        }
        ++executed;
    }

    return {RunStatus::OutOfSteps, executed};
}

} // namespace commguard
