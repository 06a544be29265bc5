#include "machine/core.hh"

#include <algorithm>
#include <cmath>
#include <limits>

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
Core::writeBack(HotState &hot)
{
    _pc = hot.pc;
    _instsThisInvocation = hot.insts;
    _errorCountdown = hot.countdown;
    _counters.committedInsts += hot.committed;
    _counters.cycles += hot.cycles;
    _counters.loads += hot.loads;
    _counters.stores += hot.stores;
    hot.committed = 0;
    hot.cycles = 0;
    hot.loads = 0;
    hot.stores = 0;
}

inline void
Core::reload(HotState &hot) const
{
    hot.pc = _pc;
    hot.insts = _instsThisInvocation;
    hot.countdown = _errorCountdown;
}

inline void
Core::fold(HotState &hot, Count n, Cycle extra_cycles)
{
    hot.committed += n;
    hot.executed += n;
    hot.insts += n;
    hot.cycles += n + extra_cycles;
    hot.countdown -= n;
    if (hot.countdown == 0) [[unlikely]] {
        writeBack(hot);
        syncScheduledErrors();
        reload(hot);
    }
}

inline void
Core::commit(HotState &hot, Cycle extra_cycles, Count next_pc)
{
    hot.pc = next_pc;
    fold(hot, 1, extra_cycles);
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
    HotState hot = holdHotState();
    commit(hot, _timing.queueOpCycles, hot.pc + 1);
    writeBack(hot);
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
    HotState hot = holdHotState();
    commit(hot, _timing.queueOpCycles, hot.pc + 1);
    writeBack(hot);
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

    // Hot-loop locals: the program, memory, and their sizes are fixed
    // for the whole slice, so keep them out of member-load territory.
    // setProgram() bounds memWords to [1, 2^32 - 1], so the 32-bit
    // remainder below equals the full-width one.
    const Inst *const code = _program.code.data();
    Word *const mem = _memory.data();
    const Word mem_words = static_cast<Word>(_memory.size());

    // The hot state lives in locals for the whole slice; writeBack()
    // publishes it before every call out of the loop and every return.
    HotState hot = holdHotState();
    Count limit = watchdogLimit();
    auto finish = [&](RunStatus status) {
        writeBack(hot);
        return RunResult{status, hot.executed};
    };

    while (hot.executed < max_steps) {
        if (hot.insts >= limit) [[unlikely]] {
            writeBack(hot);
            if (hot.insts >= _scopeBudget) {
                // PPU watchdog: the scope ran too long (e.g., a
                // corrupted loop counter); force the frame computation
                // to complete.
                ++_counters.scopeWatchdogTrips;
                if (_trace != nullptr) [[unlikely]]
                    _trace->onWatchdogTrip(*this, false);
                return finish(RunStatus::Done);
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
            hot.pc = static_cast<Count>(_scopeStack.back().exitPc);
            _blocked = false;
            limit = watchdogLimit();
        }

        // The run's budget: how many commits can pass before a
        // per-commit check could fire (slice end, watchdog, scheduled
        // error). Right after a nested trip the forced ScopeExit still
        // executes before the next check, even past an outer limit.
        const Count room = hot.insts < limit ? limit - hot.insts : 1;
        const Count budget =
            std::min({max_steps - hot.executed, room, hot.countdown});

        // The run: straight-line instructions until the budget is spent
        // or a run-ending instruction comes up. Its only bookkeeping is
        // pc, the run length and the memory-op counts, all scalars
        // (folding through HotState here costs vector shuffles per
        // instruction in GCC 12's code). A taken branch sets pc and
        // continues; every other instruction leaves the switch for the
        // one latch that advances pc and counts it, so a case body
        // jumps straight to the latch (DESIGN.md §6b).
        Count pc = hot.pc;
        Count n = 0;
        Count loads = 0;
        Count stores = 0;
        bool ends_run = false;
        for (; n != budget; ++n) {
            const Inst &inst = code[pc];
            switch (inst.op) {
              case Op::Nop:
                break;

              case Op::Li:
                _regs.write(inst.rd, inst.imm);
                break;

              // ------------------------------------------------------
              // Integer ALU.
              // ------------------------------------------------------
              case Op::Add:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) + _regs.read(inst.rs2));
                break;
              case Op::Sub:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) - _regs.read(inst.rs2));
                break;
              case Op::Mul:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) * _regs.read(inst.rs2));
                break;
              case Op::Divu: {
                const Word den = _regs.read(inst.rs2);
                // PPU contract: divide-by-zero yields a benign 0.
                _regs.write(inst.rd,
                            den ? _regs.read(inst.rs1) / den : 0);
                break;
              }
              case Op::Divs: {
                const SWord num = static_cast<SWord>(_regs.read(inst.rs1));
                const SWord den = static_cast<SWord>(_regs.read(inst.rs2));
                SWord result = 0;
                if (den != 0) {
                    // Avoid the INT_MIN / -1 overflow trap.
                    result = static_cast<SWord>(
                        static_cast<std::int64_t>(num) / den);
                }
                _regs.write(inst.rd, static_cast<Word>(result));
                break;
              }
              case Op::Remu: {
                const Word den = _regs.read(inst.rs2);
                _regs.write(inst.rd,
                            den ? _regs.read(inst.rs1) % den : 0);
                break;
              }
              case Op::And:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) & _regs.read(inst.rs2));
                break;
              case Op::Or:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) | _regs.read(inst.rs2));
                break;
              case Op::Xor:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) ^ _regs.read(inst.rs2));
                break;
              case Op::Sll:
                _regs.write(inst.rd, _regs.read(inst.rs1)
                                         << (_regs.read(inst.rs2) & 31));
                break;
              case Op::Srl:
                _regs.write(inst.rd, _regs.read(inst.rs1) >>
                                         (_regs.read(inst.rs2) & 31));
                break;
              case Op::Sra:
                _regs.write(
                    inst.rd,
                    static_cast<Word>(
                        static_cast<SWord>(_regs.read(inst.rs1)) >>
                        (_regs.read(inst.rs2) & 31)));
                break;
              case Op::Slt:
                _regs.write(
                    inst.rd,
                    static_cast<SWord>(_regs.read(inst.rs1)) <
                            static_cast<SWord>(_regs.read(inst.rs2))
                        ? 1
                        : 0);
                break;
              case Op::Sltu:
                _regs.write(inst.rd,
                            _regs.read(inst.rs1) < _regs.read(inst.rs2)
                                ? 1 : 0);
                break;

              case Op::Addi:
                _regs.write(inst.rd, _regs.read(inst.rs1) + inst.imm);
                break;
              case Op::Andi:
                _regs.write(inst.rd, _regs.read(inst.rs1) & inst.imm);
                break;
              case Op::Ori:
                _regs.write(inst.rd, _regs.read(inst.rs1) | inst.imm);
                break;
              case Op::Xori:
                _regs.write(inst.rd, _regs.read(inst.rs1) ^ inst.imm);
                break;
              case Op::Slli:
                _regs.write(inst.rd, _regs.read(inst.rs1)
                                         << (inst.imm & 31));
                break;
              case Op::Srli:
                _regs.write(inst.rd, _regs.read(inst.rs1) >>
                                         (inst.imm & 31));
                break;
              case Op::Srai:
                _regs.write(
                    inst.rd,
                    static_cast<Word>(
                        static_cast<SWord>(_regs.read(inst.rs1)) >>
                        (inst.imm & 31)));
                break;

              // ------------------------------------------------------
              // Floating point.
              // ------------------------------------------------------
              case Op::Fadd:
                _regs.write(
                    inst.rd,
                    floatToWord(wordToFloat(_regs.read(inst.rs1)) +
                                wordToFloat(_regs.read(inst.rs2))));
                break;
              case Op::Fsub:
                _regs.write(
                    inst.rd,
                    floatToWord(wordToFloat(_regs.read(inst.rs1)) -
                                wordToFloat(_regs.read(inst.rs2))));
                break;
              case Op::Fmul:
                _regs.write(
                    inst.rd,
                    floatToWord(wordToFloat(_regs.read(inst.rs1)) *
                                wordToFloat(_regs.read(inst.rs2))));
                break;
              case Op::Fdiv:
                _regs.write(
                    inst.rd,
                    floatToWord(wordToFloat(_regs.read(inst.rs1)) /
                                wordToFloat(_regs.read(inst.rs2))));
                break;
              case Op::Fsqrt: {
                const float x = wordToFloat(_regs.read(inst.rs1));
                // PPU contract: sqrt of a negative yields 0, not a trap.
                _regs.write(inst.rd,
                            floatToWord(x >= 0.0f ? std::sqrt(x) : 0.0f));
                break;
              }
              case Op::Fabs:
                _regs.write(inst.rd,
                            floatToWord(std::fabs(
                                wordToFloat(_regs.read(inst.rs1)))));
                break;
              case Op::Fneg:
                _regs.write(
                    inst.rd,
                    floatToWord(-wordToFloat(_regs.read(inst.rs1))));
                break;
              case Op::Fmin:
                _regs.write(inst.rd,
                            floatToWord(isa::isaFmin(
                                wordToFloat(_regs.read(inst.rs1)),
                                wordToFloat(_regs.read(inst.rs2)))));
                break;
              case Op::Fmax:
                _regs.write(inst.rd,
                            floatToWord(isa::isaFmax(
                                wordToFloat(_regs.read(inst.rs1)),
                                wordToFloat(_regs.read(inst.rs2)))));
                break;
              case Op::Cvtif:
                _regs.write(inst.rd,
                            floatToWord(static_cast<float>(
                                static_cast<SWord>(
                                    _regs.read(inst.rs1)))));
                break;
              case Op::Cvtfi: {
                const float x = wordToFloat(_regs.read(inst.rs1));
                SWord result = 0;
                // PPU contract: invalid conversions yield a benign 0.
                if (std::isfinite(x) && x >= -2147483648.0f &&
                    x <= 2147483520.0f) {
                    result = static_cast<SWord>(x);
                }
                _regs.write(inst.rd, static_cast<Word>(result));
                break;
              }
              case Op::Feq:
                _regs.write(inst.rd,
                            wordToFloat(_regs.read(inst.rs1)) ==
                                    wordToFloat(_regs.read(inst.rs2))
                                ? 1 : 0);
                break;
              case Op::Flt:
                _regs.write(inst.rd,
                            wordToFloat(_regs.read(inst.rs1)) <
                                    wordToFloat(_regs.read(inst.rs2))
                                ? 1 : 0);
                break;
              case Op::Fle:
                _regs.write(inst.rd,
                            wordToFloat(_regs.read(inst.rs1)) <=
                                    wordToFloat(_regs.read(inst.rs2))
                                ? 1 : 0);
                break;

              // ------------------------------------------------------
              // Control flow.
              // ------------------------------------------------------
              case Op::Jmp:
                pc = static_cast<Count>(inst.target);
                continue;
              case Op::Beq:
                if (_regs.read(inst.rs1) == _regs.read(inst.rs2)) {
                    pc = static_cast<Count>(inst.target);
                    continue;
                }
                break;
              case Op::Bne:
                if (_regs.read(inst.rs1) != _regs.read(inst.rs2)) {
                    pc = static_cast<Count>(inst.target);
                    continue;
                }
                break;
              case Op::Blt:
                if (static_cast<SWord>(_regs.read(inst.rs1)) <
                    static_cast<SWord>(_regs.read(inst.rs2))) {
                    pc = static_cast<Count>(inst.target);
                    continue;
                }
                break;
              case Op::Bge:
                if (static_cast<SWord>(_regs.read(inst.rs1)) >=
                    static_cast<SWord>(_regs.read(inst.rs2))) {
                    pc = static_cast<Count>(inst.target);
                    continue;
                }
                break;
              case Op::Bltu:
                if (_regs.read(inst.rs1) < _regs.read(inst.rs2)) {
                    pc = static_cast<Count>(inst.target);
                    continue;
                }
                break;
              case Op::Bgeu:
                if (_regs.read(inst.rs1) >= _regs.read(inst.rs2)) {
                    pc = static_cast<Count>(inst.target);
                    continue;
                }
                break;

              // ------------------------------------------------------
              // Memory (addresses wrap: the PPU never faults).
              // ------------------------------------------------------
              case Op::Lw: {
                const Word addr =
                    (_regs.read(inst.rs1) + inst.imm) % mem_words;
                _regs.write(inst.rd, mem[addr]);
                ++loads;
                break;
              }
              case Op::Sw: {
                const Word addr =
                    (_regs.read(inst.rs1) + inst.imm) % mem_words;
                if (_journalStores) [[unlikely]]
                    _storeJournal.emplace_back(addr, mem[addr]);
                mem[addr] = _regs.read(inst.rs2);
                ++stores;
                break;
              }

              default:
                // Halt, queue and scope instructions (and invalid
                // opcodes) end the run before they execute.
                ends_run = true;
                break;
            }
            if (ends_run)
                break;
            ++pc;
        }

        // Fold the run into the hot state once.
        hot.loads += loads;
        hot.stores += stores;
        hot.pc = pc;
        fold(hot, n, (loads + stores) * _timing.memExtraCycles);
        if (!ends_run)
            continue;

        // The run-ending instruction at hot.pc, committed on its own.
        const Inst &inst = code[hot.pc];
        const Count next_pc = hot.pc + 1;
        switch (inst.op) {
          case Op::Halt:
            commit(hot, 0, hot.pc);
            return finish(RunStatus::Done);

          // ----------------------------------------------------------
          // Streaming communication.
          // ----------------------------------------------------------
          case Op::Push: {
            const int port = static_cast<int>(inst.imm);
            // Backends call back into the core (exposeQueueWindow,
            // chargeQueueTransfer, traceSink, ...): publish, then
            // re-read what they may have changed.
            writeBack(hot);
            const QueueOpStatus status =
                _backend->push(port, _regs.read(inst.rs2));
            reload(hot);
            if (status == QueueOpStatus::Blocked) {
                if (_trace != nullptr && !_blocked) [[unlikely]]
                    _trace->onQueueBlock(*this, port, false);
                _blocked = true;
                _blockedIsPop = false;
                _blockedPort = port;
                return finish(RunStatus::Blocked);
            }
            if (_trace != nullptr) [[unlikely]] {
                if (_blocked)
                    _trace->onQueueUnblock(*this, port, false);
                _trace->onQueuePush(*this, port);
            }
            _blocked = false;
            ++_counters.queuePushes;
            commit(hot, _timing.queueOpCycles, next_pc);
            break;
          }
          case Op::Pop: {
            const int port = static_cast<int>(inst.imm);
            writeBack(hot);
            const BackendPopResult result = _backend->pop(port);
            reload(hot);
            if (result.blocked) {
                if (_trace != nullptr && !_blocked) [[unlikely]]
                    _trace->onQueueBlock(*this, port, true);
                _blocked = true;
                _blockedIsPop = true;
                _blockedPort = port;
                return finish(RunStatus::Blocked);
            }
            if (_trace != nullptr) [[unlikely]] {
                if (_blocked)
                    _trace->onQueueUnblock(*this, port, true);
                _trace->onQueuePop(*this, port);
            }
            _blocked = false;
            _regs.write(inst.rd, result.value);
            ++_counters.queuePops;
            commit(hot, _timing.queueOpCycles, next_pc);
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
                    inst.imm, info.exitPc, hot.insts + scope_budget});
                limit = watchdogLimit();
            }
            commit(hot, 0, next_pc);
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
            commit(hot, 0, next_pc);
            break;

          default:
            panic("core " + _name + ": invalid opcode");
        }
    }

    return finish(RunStatus::OutOfSteps);
}

} // namespace commguard
