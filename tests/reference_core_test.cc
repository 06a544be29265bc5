/**
 * @file
 * Whole-program differential test of the interpreter against the
 * reference core (tests/reference_core.hh).
 *
 * A generator builds random programs that always terminate on their
 * own: forDown loops, nested scopes (deeper than the tracked depth),
 * forward branches on every condition, every ALU and FP opcode, loads
 * and stores at in-range, boundary and wrapping addresses, and push
 * and pop. Each program runs for several invocations on a Core, in
 * random slices of 1 to 50,000 instructions, and on the reference core.
 * Errors arrive every few tens of instructions, so corrupted loop
 * counters trip both watchdogs. Push and Pop go to a scripted backend
 * that accepts, stalls, times out and opens software-queue exposure
 * windows. At every invocation end the registers, memory, every
 * counter the core owns, the injected-error count and the words the
 * backend received must match; a mismatch names the seed, the
 * invocation and the first field that differs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "isa/assembler.hh"
#include "machine/core.hh"
#include "queue/reliable_queue.hh"
#include "reference_core.hh"

namespace commguard
{
namespace
{

using namespace isa;
using test::ReferenceCore;

constexpr int kSeeds = 64;

/**
 * A backend whose every answer comes from a seeded script. A push or
 * pop is accepted, stalls, or is accepted after an exposure window over
 * a queue whose corrupt() is a no-op. After a stall, timesOut() says
 * whether the operation times out or is retried. Two backends with one
 * seed follow one script, so a Core and the reference core get the same
 * answers for as long as they make the same calls.
 */
class ScriptedBackend : public CommBackend
{
  public:
    using Expose = std::function<void(Count, QueueBase &)>;

    ScriptedBackend(std::uint64_t seed, Expose expose)
        : _script(seed), _expose(std::move(expose))
    {
    }

    QueueOpStatus
    push(int port, Word value) override
    {
        record(0, port, value);
        return answer() ? QueueOpStatus::Ok : QueueOpStatus::Blocked;
    }

    BackendPopResult
    pop(int port) override
    {
        record(1, port, 0);
        if (!answer())
            return {true, 0};
        return {false, popValue()};
    }

    /** After a stall: true times the operation out, false retries. */
    bool timesOut() { return _script.below(3) == 0; }

    Word
    timeoutPop(int port) override
    {
        record(2, port, 0);
        return popValue();
    }

    void timeoutPush(int port) override { record(3, port, 0); }

    QueueOpStatus newFrameComputation() override { return QueueOpStatus::Ok; }
    QueueOpStatus endOfComputation() override { return QueueOpStatus::Ok; }

    /** Every call so far: its kind and port, then the pushed value. */
    const std::vector<Word> &received() const { return _received; }

    Count windows() const { return _windows; }

  private:
    void
    record(Word kind, int port, Word value)
    {
        _received.push_back(kind * 16 + static_cast<Word>(port));
        _received.push_back(value);
    }

    /** True to accept the call; false stalls it. */
    bool
    answer()
    {
        switch (_script.below(8)) {
          case 0:
          case 1:
            return false;
          case 2:
            ++_windows;
            _expose(1 + _script.below(24), _window);
            return true;
          default:
            return true;
        }
    }

    /** A small count or a full-range word. */
    Word
    popValue()
    {
        return _script.below(2) ? _script.below(16) : _script.next32();
    }

    Rng _script;
    Expose _expose;
    ReliableQueue _window{"window", 4};
    std::vector<Word> _received;
    Count _windows = 0;
};

/**
 * @p prefix followed by @p n. Appending keeps GCC 12's -O3 -Wrestrict
 * false positive on `"lit" + std::to_string(n)` out of Release builds.
 */
std::string
numbered(const char *prefix, std::size_t n)
{
    std::string name = prefix;
    name += std::to_string(n);
    return name;
}

/** Register-register and register-immediate ALU and FP opcodes. */
const Op aluOps[] = {
    Op::Add,  Op::Sub,  Op::Mul,  Op::Divu, Op::Divs, Op::Remu,
    Op::And,  Op::Or,   Op::Xor,  Op::Sll,  Op::Srl,  Op::Sra,
    Op::Slt,  Op::Sltu, Op::Addi, Op::Andi, Op::Ori,  Op::Xori,
    Op::Slli, Op::Srli, Op::Srai, Op::Fadd, Op::Fsub, Op::Fmul,
    Op::Fdiv, Op::Fsqrt, Op::Fabs, Op::Fneg, Op::Fmin, Op::Fmax,
    Op::Cvtif, Op::Cvtfi, Op::Feq, Op::Flt, Op::Fle,
};

const Op branchOps[] = {Op::Beq, Op::Bne, Op::Blt,
                        Op::Bge, Op::Bltu, Op::Bgeu};

/**
 * Builds one random program that terminates when no error strikes:
 * R1-R12 hold data, R13-R16 address bases and R20-R22 loop counters.
 */
class ProgramGenerator
{
  public:
    explicit ProgramGenerator(Rng &rng) : _rng(rng) {}

    Program
    make()
    {
        static const std::size_t memSizes[] = {777, 4096, 65536};
        _memWords = static_cast<Word>(memSizes[_rng.below(3)]);
        _a.setMemWords(_memWords);
        std::vector<Word> data(16 + _rng.below(48));
        for (Word &w : data)
            w = _rng.next32();
        _a.dataWords(data);

        for (Reg r = R1; r <= R12; ++r)
            _a.li(r, word());
        _dynamic = 12;
        const int blocks = 1 + static_cast<int>(_rng.below(3));
        for (int i = 0; i < blocks; ++i)
            block(0, 0);
        _a.halt();

        // The watchdog estimate: unknown, or around the error-free
        // dynamic count, so some invocations outrun it.
        const Count estimates[] = {0, _dynamic / 2, _dynamic,
                                   2 * _dynamic};
        _a.setEstimatedInsts(estimates[_rng.below(4)]);
        return _a.finalize();
    }

  private:
    Reg data() { return static_cast<Reg>(R1 + _rng.below(12)); }

    /** A source operand: R0 or a data register. */
    Reg source() { return static_cast<Reg>(_rng.below(13)); }

    /** A small value, a float, or a full-range word. */
    Word
    word()
    {
        switch (_rng.below(3)) {
          case 0: return _rng.below(16);
          case 1:
            return floatToWord(static_cast<float>(_rng.below(2001)) /
                                   8.0f - 125.0f);
          default: return _rng.next32();
        }
    }

    std::string label() { return numbered("l", _labels++); }

    /** Emit through @p emit, counting its instructions @p _weight times. */
    void
    leaf(const std::function<void()> &emit)
    {
        const std::size_t before = _a.codeSize();
        emit();
        _dynamic += _weight * (_a.codeSize() - before);
    }

    void
    block(int loops, int scopes)
    {
        const int items = 1 + static_cast<int>(_rng.below(4));
        for (int i = 0; i < items; ++i) {
            switch (_rng.below(10)) {
              case 0:
              case 1: leaf([&] { alu(1 + _rng.below(4)); }); break;
              case 2: leaf([&] { memory(); }); break;
              case 3: leaf([&] { forwardBranch(); }); break;
              case 4: leaf([&] { queue(); }); break;
              case 5: leaf([&] { _a.nop(); _a.li(data(), word()); }); break;
              case 6:
              case 7:
                if (scopes < 5) {
                    scope(loops, scopes);
                    break;
                }
                [[fallthrough]];
              default:
                if (loops < 3)
                    loop(loops, scopes);
                else
                    leaf([&] { memory(); });
                break;
            }
        }
    }

    void
    loop(int loops, int scopes)
    {
        const Word n = 1 + _rng.below(4);
        const Count outer = _weight;
        _dynamic += outer;  // The counter's li.
        _weight *= n;
        _a.forDown(static_cast<Reg>(R20 + loops), n,
                   [&] { block(loops + 1, scopes); });
        _dynamic += 2 * _weight;  // Decrement and branch back.
        _weight = outer;
    }

    void
    scope(int loops, int scopes)
    {
        _dynamic += 2 * _weight;
        _a.scopeEnter(4 + _rng.below(120));
        block(loops, scopes + 1);
        _a.scopeExit();
    }

    void
    alu(Word count)
    {
        for (Word i = 0; i < count; ++i) {
            const Op op = aluOps[_rng.below(std::size(aluOps))];
            const Reg rd = data();
            const Reg a = source();
            const Reg b = source();
            const Word imm = _rng.below(2) ? _rng.below(40) : _rng.next32();
            switch (op) {
              case Op::Add: _a.add(rd, a, b); break;
              case Op::Sub: _a.sub(rd, a, b); break;
              case Op::Mul: _a.mul(rd, a, b); break;
              case Op::Divu: _a.divu(rd, a, b); break;
              case Op::Divs: _a.divs(rd, a, b); break;
              case Op::Remu: _a.remu(rd, a, b); break;
              case Op::And: _a.and_(rd, a, b); break;
              case Op::Or: _a.or_(rd, a, b); break;
              case Op::Xor: _a.xor_(rd, a, b); break;
              case Op::Sll: _a.sll(rd, a, b); break;
              case Op::Srl: _a.srl(rd, a, b); break;
              case Op::Sra: _a.sra(rd, a, b); break;
              case Op::Slt: _a.slt(rd, a, b); break;
              case Op::Sltu: _a.sltu(rd, a, b); break;
              case Op::Addi: _a.addi(rd, a, static_cast<SWord>(imm)); break;
              case Op::Andi: _a.andi(rd, a, imm); break;
              case Op::Ori: _a.ori(rd, a, imm); break;
              case Op::Xori: _a.xori(rd, a, imm); break;
              case Op::Slli: _a.slli(rd, a, imm); break;
              case Op::Srli: _a.srli(rd, a, imm); break;
              case Op::Srai: _a.srai(rd, a, imm); break;
              case Op::Fadd: _a.fadd(rd, a, b); break;
              case Op::Fsub: _a.fsub(rd, a, b); break;
              case Op::Fmul: _a.fmul(rd, a, b); break;
              case Op::Fdiv: _a.fdiv(rd, a, b); break;
              case Op::Fsqrt: _a.fsqrt(rd, a); break;
              case Op::Fabs: _a.fabs_(rd, a); break;
              case Op::Fneg: _a.fneg(rd, a); break;
              case Op::Fmin: _a.fmin(rd, a, b); break;
              case Op::Fmax: _a.fmax(rd, a, b); break;
              case Op::Cvtif: _a.cvtif(rd, a); break;
              case Op::Cvtfi: _a.cvtfi(rd, a); break;
              case Op::Feq: _a.feq(rd, a, b); break;
              case Op::Flt: _a.flt(rd, a, b); break;
              case Op::Fle: _a.fle(rd, a, b); break;
              default: FAIL() << "generator: " << opName(op);
            }
        }
    }

    /** A load or store at an in-range, boundary or wrapping address. */
    void
    memory()
    {
        Reg base = static_cast<Reg>(R13 + _rng.below(4));
        SWord offset = 0;
        switch (_rng.below(4)) {
          case 0:  // In range.
            _a.li(base, _rng.below(_memWords - 64));
            offset = static_cast<SWord>(_rng.below(64));
            break;
          case 1:  // memWords - 3 .. memWords + 3: either side of the end.
            _a.li(base, _memWords - 3 + _rng.below(4));
            offset = static_cast<SWord>(_rng.below(4));
            break;
          case 2:  // Below zero: wraps through 2^32.
            _a.li(base, _rng.below(4));
            offset = -1 - static_cast<SWord>(_rng.below(8));
            break;
          default:  // Whatever a data register holds.
            base = data();
            offset = static_cast<SWord>(_rng.below(256)) - 128;
            break;
        }
        if (_rng.below(2))
            _a.lw(data(), base, offset);
        else
            _a.sw(source(), base, offset);
        if (_rng.below(2))
            _a.lw(data(), base, offset);
    }

    void
    forwardBranch()
    {
        const std::string skip = label();
        const Reg x = source();
        const Reg y = source();
        switch (branchOps[_rng.below(std::size(branchOps))]) {
          case Op::Beq: _a.beq(x, y, skip); break;
          case Op::Bne: _a.bne(x, y, skip); break;
          case Op::Blt: _a.blt(x, y, skip); break;
          case Op::Bge: _a.bge(x, y, skip); break;
          case Op::Bltu: _a.bltu(x, y, skip); break;
          default: _a.bgeu(x, y, skip); break;
        }
        alu(1 + _rng.below(3));
        if (_rng.below(4) == 0) {
            const std::string over = label();
            _a.jmp(over);
            alu(1);
            _a.label(over);
        }
        _a.label(skip);
    }

    void
    queue()
    {
        if (_rng.below(2))
            _a.push(static_cast<int>(_rng.below(2)), source());
        else
            _a.pop(data(), static_cast<int>(_rng.below(2)));
    }

    Rng &_rng;
    Assembler _a{"whole"};
    Word _memWords = 0;
    std::size_t _labels = 0;
    Count _weight = 1;   //!< Error-free executions of the next leaf.
    Count _dynamic = 0;  //!< Error-free dynamic count so far (at most).
};

/**
 * The first field in which the core's state differs from the
 * reference's, as "field: core X, reference Y"; empty if none does.
 */
std::string
firstDifference(Core &core, const ScriptedBackend &core_backend,
                const ReferenceCore &reference,
                const ScriptedBackend &reference_backend)
{
    const CoreCounters &c = core.counters();
    const CoreCounters &r = reference.counters();
    std::vector<std::pair<std::string, std::pair<Count, Count>>> fields = {
        {"committedInsts", {c.committedInsts, r.committedInsts}},
        {"cycles", {c.cycles, r.cycles}},
        {"loads", {c.loads, r.loads}},
        {"stores", {c.stores, r.stores}},
        {"queuePushes", {c.queuePushes, r.queuePushes}},
        {"queuePops", {c.queuePops, r.queuePops}},
        {"registerFlips", {c.registerFlips, r.registerFlips}},
        {"scopeWatchdogTrips", {c.scopeWatchdogTrips, r.scopeWatchdogTrips}},
        {"nestedScopeTrips", {c.nestedScopeTrips, r.nestedScopeTrips}},
        {"popTimeouts", {c.popTimeouts, r.popTimeouts}},
        {"pushTimeouts", {c.pushTimeouts, r.pushTimeouts}},
        {"invocations", {c.invocations, r.invocations}},
        {"errorsInjected",
         {core.injector().errorsInjected(), reference.errorsInjected()}},
        {"pc", {core.pc(), reference.pc()}},
    };
    for (int i = 0; i < numRegs; ++i) {
        const Reg reg = static_cast<Reg>(i);
        fields.push_back({numbered("r", i),
                          {core.regs().read(reg), reference.reg(reg)}});
    }
    const std::vector<Word> &core_mem = core.memory();
    const std::vector<Word> &ref_mem = reference.memory();
    const auto mem = std::mismatch(core_mem.begin(), core_mem.end(),
                                   ref_mem.begin(), ref_mem.end());
    if (mem.first != core_mem.end()) {
        const auto at = mem.first - core_mem.begin();
        fields.push_back({numbered("mem[", at) + "]",
                          {*mem.first, *mem.second}});
    }
    const std::vector<Word> &core_words = core_backend.received();
    const std::vector<Word> &ref_words = reference_backend.received();
    fields.push_back({"backend words received",
                      {core_words.size(), ref_words.size()}});
    const auto word = std::mismatch(core_words.begin(), core_words.end(),
                                    ref_words.begin(), ref_words.end());
    if (word.first != core_words.end() && word.second != ref_words.end()) {
        const auto at = word.first - core_words.begin();
        fields.push_back({numbered("backend word ", at),
                          {*word.first, *word.second}});
    }

    for (const auto &[name, values] : fields) {
        if (values.first != values.second) {
            std::ostringstream os;
            os << name << ": core " << values.first << ", reference "
               << values.second;
            return os.str();
        }
    }
    return "";
}

/** Features a case reached, by name, with how often. */
using Reach = std::map<std::string, Count>;

/**
 * Generate case @p seed, run it on a Core and on the reference core,
 * and compare them at every invocation end. Adds what the reference
 * reached to @p reach.
 */
void
runCase(int seed, Reach &reach)
{
    Rng rng(static_cast<std::uint64_t>(seed) * 7919u + 17);
    const Program program = ProgramGenerator(rng).make();

    PpuConfig ppu;
    ppu.watchdogMultiplier = 1 + rng.below(3);
    ppu.defaultScopeBudget = 1024 + rng.below(8192);
    if (rng.below(4) == 0)
        ppu.maxScopeBudget = 500 + rng.below(4000);
    ppu.enforceNestedScopes = rng.below(8) != 0;
    const int depths[] = {1, 2, 3, 8};
    ppu.maxScopeDepth = depths[rng.below(4)];

    TimingConfig timing;
    timing.memExtraCycles = rng.below(4);
    timing.queueOpCycles = rng.below(6);

    ErrorInjector::Config errors;
    errors.enabled = true;
    errors.mtbe = 20 + rng.below(80);
    errors.seed = rng.next32();
    errors.flipAllRegisters = rng.below(4) == 0;

    const std::uint64_t script = rng.next32();
    const int invocations = 3 + static_cast<int>(rng.below(5));

    Core core(0, "whole");
    core.setProgram(program);
    core.setPpu(ppu);
    core.setTiming(timing);
    core.configureInjector(errors);
    ScriptedBackend core_backend(script, [&core](Count n, QueueBase &q) {
        core.exposeQueueWindow(n, q);
    });
    core.setBackend(&core_backend);

    ReferenceCore reference(program, ppu, timing, errors);
    ScriptedBackend reference_backend(
        script, [&reference](Count n, QueueBase &q) {
            reference.exposeQueueWindow(n, q);
        });

    for (int invocation = 0; invocation < invocations; ++invocation) {
        core.startInvocation();
        for (;;) {
            const Count slice =
                1 + rng.below(rng.below(2) ? 64 : 50'000);
            const RunStatus status = core.run(slice).status;
            if (status == RunStatus::Done)
                break;
            if (status != RunStatus::Blocked || !core_backend.timesOut())
                continue;
            const int port = core.blockedPort();
            if (core.blockedOnPop()) {
                core.resolveBlockedPop(core_backend.timeoutPop(port));
            } else {
                core_backend.timeoutPush(port);
                core.resolveBlockedPush();
            }
        }
        reference.runInvocation(&reference_backend, [&] {
            return reference_backend.timesOut();
        });

        const std::string difference = firstDifference(
            core, core_backend, reference, reference_backend);
        if (!difference.empty()) {
            ADD_FAILURE() << "seed " << seed << ", invocation "
                          << invocation << ": " << difference;
            break;
        }
    }

    const CoreCounters &counters = reference.counters();
    const test::ReferenceReach &reached = reference.reach();
    reach["invocation watchdog trips"] += counters.scopeWatchdogTrips;
    reach["nested watchdog trips"] += counters.nestedScopeTrips;
    reach["scopes past maxScopeDepth"] += reached.untrackedScopes;
    reach["pop timeouts"] += counters.popTimeouts;
    reach["push timeouts"] += counters.pushTimeouts;
    reach["exposure windows"] += reference_backend.windows();
    reach["register flips"] += counters.registerFlips;
    reach["in-range loads"] += reached.inRangeLoads;
    reach["wrapped loads"] += reached.wrappedLoads;
    reach["in-range stores"] += reached.inRangeStores;
    reach["wrapped stores"] += reached.wrappedStores;
    for (std::size_t op = 0; op < reached.ops.size(); ++op) {
        std::string name = "opcode ";
        name += opName(static_cast<Op>(op));
        reach[name] += reached.ops[op];
    }
}

class ReferenceCoreDifferential : public ::testing::TestWithParam<int>
{
};

TEST_P(ReferenceCoreDifferential, EveryInvocationEndMatches)
{
    Reach reach;
    runCase(GetParam(), reach);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReferenceCoreDifferential,
                         ::testing::Range(0, kSeeds));

/**
 * The seeds above reach every feature the interpreter's fast paths
 * special-case; a generator change that stops reaching one fails here.
 */
TEST(ReferenceCoreReach, SeedsReachEveryFeature)
{
    Reach reach;
    for (int seed = 0; seed < kSeeds; ++seed)
        runCase(seed, reach);
    for (const auto &[feature, count] : reach) {
        std::printf("reached %-26s %llu\n", feature.c_str(),
                    static_cast<unsigned long long>(count));
        EXPECT_GT(count, 0u) << feature;
    }
}

} // namespace
} // namespace commguard
