#include "machine/core.hh"

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

void
Core::commit(Cycle extra_cycles, Count next_pc)
{
    if (_trace != nullptr) [[unlikely]]
        _trace->onCommit(*this, _pc, _program.code[_pc]);
    _pc = next_pc;
    ++_counters.committedInsts;
    ++_instsThisInvocation;
    _counters.cycles += 1 + extra_cycles;
    if (--_errorCountdown == 0) [[unlikely]]
        syncScheduledErrors();
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

    // Hot-loop locals: the program, memory, and their sizes are fixed
    // for the whole slice, so keep them out of member-load territory.
    const Inst *const code = _program.code.data();
    Word *const mem = _memory.data();
    const std::size_t mem_words = _memory.size();
    Count executed = 0;

    while (executed < max_steps) {
        if (_instsThisInvocation >= _scopeBudget) {
            // PPU watchdog: the scope ran too long (e.g., a corrupted
            // loop counter); force the frame computation to complete.
            ++_counters.scopeWatchdogTrips;
            if (_trace != nullptr) [[unlikely]]
                _trace->onWatchdogTrip(*this, false);
            return {RunStatus::Done, executed};
        }

        // Nested scope watchdog (paper SS4.4): force the innermost
        // over-budget scope to its exit. The jump target is a static
        // ScopeExit instruction, so the stack unwinds naturally.
        if (!_scopeStack.empty() &&
            _instsThisInvocation >= _scopeStack.back().deadline) {
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
        }

        const Inst &inst = code[_pc];
        Count next_pc = _pc + 1;

        switch (inst.op) {
          case Op::Nop:
            break;

          case Op::Halt:
            commit(0, _pc);
            ++executed;
            return {RunStatus::Done, executed};

          case Op::Li:
            _regs.write(inst.rd, inst.imm);
            break;

          // ----------------------------------------------------------
          // Integer ALU.
          // ----------------------------------------------------------
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
            _regs.write(inst.rd,
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

          // ----------------------------------------------------------
          // Floating point.
          // ----------------------------------------------------------
          case Op::Fadd:
            _regs.write(inst.rd,
                        floatToWord(wordToFloat(_regs.read(inst.rs1)) +
                                    wordToFloat(_regs.read(inst.rs2))));
            break;
          case Op::Fsub:
            _regs.write(inst.rd,
                        floatToWord(wordToFloat(_regs.read(inst.rs1)) -
                                    wordToFloat(_regs.read(inst.rs2))));
            break;
          case Op::Fmul:
            _regs.write(inst.rd,
                        floatToWord(wordToFloat(_regs.read(inst.rs1)) *
                                    wordToFloat(_regs.read(inst.rs2))));
            break;
          case Op::Fdiv:
            _regs.write(inst.rd,
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
            _regs.write(inst.rd,
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
                            static_cast<SWord>(_regs.read(inst.rs1)))));
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

          // ----------------------------------------------------------
          // Control flow.
          // ----------------------------------------------------------
          case Op::Jmp:
            next_pc = static_cast<Count>(inst.target);
            break;
          case Op::Beq:
            if (_regs.read(inst.rs1) == _regs.read(inst.rs2))
                next_pc = static_cast<Count>(inst.target);
            break;
          case Op::Bne:
            if (_regs.read(inst.rs1) != _regs.read(inst.rs2))
                next_pc = static_cast<Count>(inst.target);
            break;
          case Op::Blt:
            if (static_cast<SWord>(_regs.read(inst.rs1)) <
                static_cast<SWord>(_regs.read(inst.rs2)))
                next_pc = static_cast<Count>(inst.target);
            break;
          case Op::Bge:
            if (static_cast<SWord>(_regs.read(inst.rs1)) >=
                static_cast<SWord>(_regs.read(inst.rs2)))
                next_pc = static_cast<Count>(inst.target);
            break;
          case Op::Bltu:
            if (_regs.read(inst.rs1) < _regs.read(inst.rs2))
                next_pc = static_cast<Count>(inst.target);
            break;
          case Op::Bgeu:
            if (_regs.read(inst.rs1) >= _regs.read(inst.rs2))
                next_pc = static_cast<Count>(inst.target);
            break;

          // ----------------------------------------------------------
          // Memory (addresses wrap: the PPU never faults).
          // ----------------------------------------------------------
          case Op::Lw: {
            const std::size_t addr =
                (_regs.read(inst.rs1) + inst.imm) % mem_words;
            _regs.write(inst.rd, mem[addr]);
            ++_counters.loads;
            commit(_timing.memExtraCycles, next_pc);
            ++executed;
            continue;
          }
          case Op::Sw: {
            const std::size_t addr =
                (_regs.read(inst.rs1) + inst.imm) % mem_words;
            if (_journalStores) [[unlikely]]
                _storeJournal.emplace_back(
                    static_cast<std::uint32_t>(addr), mem[addr]);
            mem[addr] = _regs.read(inst.rs2);
            ++_counters.stores;
            commit(_timing.memExtraCycles, next_pc);
            ++executed;
            continue;
          }

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
            ++executed;
            continue;
          }
          case Op::ScopeEnter: {
            if (_ppu.enforceNestedScopes &&
                static_cast<int>(_scopeStack.size()) <
                    _ppu.maxScopeDepth) {
                const isa::ScopeInfo &info = _program.scopes[inst.imm];
                Count budget = info.estimatedInsts *
                               _ppu.watchdogMultiplier;
                if (budget < 64)
                    budget = 64;
                _scopeStack.push_back(ScopeFrame{
                    inst.imm, info.exitPc,
                    _instsThisInvocation + budget});
            }
            break;
          }
          case Op::ScopeExit:
            // Pop only the matching activation: exits of scopes that
            // were beyond the tracked depth fall through harmlessly.
            if (!_scopeStack.empty() &&
                _scopeStack.back().id == inst.imm) {
                _scopeStack.pop_back();
            }
            break;

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
            ++executed;
            continue;
          }

          default:
            panic("core " + _name + ": invalid opcode");
        }

        commit(0, next_pc);
        ++executed;
    }

    return {RunStatus::OutOfSteps, executed};
}

} // namespace commguard
