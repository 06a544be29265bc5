/**
 * @file
 * The interpreter counts pc, instructions, cycles and the error
 * countdown in the core's members, and folds each straight-line run
 * into them once, before anything outside the run can observe or
 * change them: backend calls (which call back into the core for
 * software-queue exposure), trace hooks, the error sync, and the
 * watchdog trips. These tests pin the state those points see on a
 * producer→consumer pair that exercises every one of them under heavy
 * error injection: a traced run and an untraced run must end in the
 * same state, the state each trace hook observes is pinned by a
 * digest, and no scheduling-slice size changes either.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/io_queue.hh"
#include "queue/software_queue.hh"

namespace commguard
{
namespace
{

using namespace isa;

constexpr Count kFrames = 24;
constexpr double kMtbe = 300.0;

/**
 * Loads, stores and pushes in a loop, plus a nested scope whose inner
 * loop never terminates on its own: the nested watchdog forces it out
 * every iteration.
 */
Program
producer()
{
    Assembler a("prod");
    a.setMemWords(1000);  // Not a power of two: the wrap is a real %.
    const Word table = a.dataWords({3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 8});
    a.li(R2, table);
    a.forDown(R30, 12, [&] {
        a.lw(R1, R2, 0);
        a.addi(R1, R1, 7);
        a.sw(R1, R2, 500);
        a.addi(R2, R2, 1);
        a.push(0, R1);
        a.scopeEnter(8);
        a.li(R3, 1);
        a.label("spin");
        a.addi(R3, R3, 1);
        a.bne(R3, R0, "spin");
        a.scopeExit();
    });
    a.setEstimatedInsts(12 * 100);
    return a.finalize();
}

/**
 * Pops one item from the producer and one from a short source (so it
 * starves into pop timeouts), accumulates into memory, and forwards to
 * the collector.
 */
Program
consumer()
{
    Assembler a("cons");
    a.setMemWords(777);
    a.forDown(R30, 12, [&] {
        a.pop(R1, 0);
        a.pop(R5, 1);
        a.lw(R2, R4, 0);
        a.add(R2, R2, R1);
        a.add(R2, R2, R5);
        a.sw(R2, R4, 0);
        a.addi(R4, R4, 3);
        a.push(0, R2);
    });
    a.setEstimatedInsts(12 * 8);
    return a.finalize();
}

/** Which TraceSink hook fired (digest input; the values are pinned). */
enum class Hook : std::uint8_t
{
    InvocationStart = 2,
    ErrorInjected,
    QueuePush,
    QueuePop,
    QueueBlock,
    QueueUnblock,
    QueueCorrupt,
    QueueDepth,
    PopTimeout,
    PushTimeout,
    WatchdogTrip,
    NumHooks,
};

/**
 * Folds (hook, core, pc(), committedInsts, cycles) of every hook into
 * an FNV-1a digest and counts the hooks by kind.
 */
class RecordingSink : public TraceSink
{
  public:
    std::uint64_t digest() const { return _digest; }

    Count
    count(Hook hook) const
    {
        return _counts[static_cast<std::size_t>(hook)];
    }

    void
    onInvocationStart(const Core &core) override
    {
        record(Hook::InvocationStart, core);
    }
    void
    onErrorInjected(const Core &core, Reg, int) override
    {
        record(Hook::ErrorInjected, core);
    }
    void
    onQueuePush(const Core &core, int) override
    {
        record(Hook::QueuePush, core);
    }
    void
    onQueuePop(const Core &core, int) override
    {
        record(Hook::QueuePop, core);
    }
    void
    onQueueBlock(const Core &core, int, bool) override
    {
        record(Hook::QueueBlock, core);
    }
    void
    onQueueUnblock(const Core &core, int, bool) override
    {
        record(Hook::QueueUnblock, core);
    }
    void
    onQueueCorrupt(const Core &core, const QueueBase &) override
    {
        record(Hook::QueueCorrupt, core);
    }
    void
    onQueueDepth(const Core &core, const QueueBase &,
                 std::size_t) override
    {
        record(Hook::QueueDepth, core);
    }
    void
    onPopTimeout(const Core &core, int) override
    {
        record(Hook::PopTimeout, core);
    }
    void
    onPushTimeout(const Core &core, int) override
    {
        record(Hook::PushTimeout, core);
    }
    void
    onWatchdogTrip(const Core &core, bool) override
    {
        record(Hook::WatchdogTrip, core);
    }

  private:
    void
    mix(std::uint64_t value)
    {
        for (int i = 0; i < 8; ++i) {
            _digest ^= (value >> (8 * i)) & 0xff;
            _digest *= 0x100000001b3ull;
        }
    }

    void
    record(Hook hook, const Core &core)
    {
        ++_counts[static_cast<std::size_t>(hook)];
        mix(static_cast<std::uint64_t>(hook));
        mix(core.id());
        mix(core.pc());
        mix(core.counters().committedInsts);
        mix(core.cycles());
    }

    std::uint64_t _digest = 0xcbf29ce484222325ull;
    Count _counts[static_cast<std::size_t>(Hook::NumHooks)] = {};
};

/** All 13 CoreCounters fields, in declaration order. */
std::vector<Count>
counterValues(const CoreCounters &c)
{
    return {c.committedInsts,   c.cycles,        c.loads,
            c.stores,           c.queuePushes,   c.queuePops,
            c.registerFlips,    c.scopeWatchdogTrips,
            c.nestedScopeTrips, c.popTimeouts,   c.pushTimeouts,
            c.invocations,      c.blockedSlices};
}

/** Everything a run leaves behind on one core. */
struct CoreEnd
{
    CoreCounters counters;
    std::vector<Word> regs;
    std::vector<Word> memory;
    Count errorsInjected = 0;
};

CoreEnd
endState(Core &core)
{
    CoreEnd end;
    end.counters = core.counters();
    for (int r = 0; r < numRegs; ++r)
        end.regs.push_back(core.regs().read(static_cast<Reg>(r)));
    end.memory = core.memory();
    end.errorsInjected = core.injector().errorsInjected();
    return end;
}

struct PairRun
{
    bool completed = false;
    CoreEnd producer;
    CoreEnd consumer;
    std::vector<Word> output;
};

/** Run the pair; @p sink (may be null) observes both cores. */
PairRun
runPair(RecordingSink *sink)
{
    MachineConfig config;
    config.sliceInstructions = 97;
    config.timeoutRounds = 40;
    Multicore machine(config);
    Core &prod = machine.addCore("prod");
    Core &cons = machine.addCore("cons");
    QueueBase &mid =
        machine.addQueue(std::make_unique<SoftwareQueue>("mid", 4));
    std::vector<QueueWord> side;
    for (Word w = 0; w < 100; ++w)
        side.push_back(makeItem(w * 13));
    auto short_source =
        std::make_unique<SourceQueue>("src", std::move(side));
    short_source->setStreaming(true);  // Empty means Blocked.
    QueueBase &src = machine.addQueue(std::move(short_source));
    auto *out = static_cast<CollectorQueue *>(&machine.addQueue(
        std::make_unique<CollectorQueue>("out")));

    prod.setProgram(producer());
    cons.setProgram(consumer());
    std::uint64_t seed = 11;
    for (Core *core : {&prod, &cons}) {
        ErrorInjector::Config injector;
        injector.enabled = true;
        injector.mtbe = kMtbe;
        injector.seed = seed++;
        core->configureInjector(injector);
        core->setTraceSink(sink);
    }
    machine.addRuntime(
        prod,
        machine.addBackend(std::make_unique<RawBackend>(
            std::vector<QueueBase *>{}, std::vector<QueueBase *>{&mid})),
        kFrames);
    machine.addRuntime(
        cons,
        machine.addBackend(std::make_unique<RawBackend>(
            std::vector<QueueBase *>{&mid, &src},
            std::vector<QueueBase *>{out})),
        kFrames);

    PairRun run;
    run.completed = machine.run().completed;
    run.producer = endState(prod);
    run.consumer = endState(cons);
    run.output = out->items();
    return run;
}

/** What a producer-only run leaves behind. */
struct SoloRun
{
    bool completed = false;
    CoreEnd core;
    std::vector<Word> output;
};

/**
 * Run producer() alone on one core into a collector, so nothing ever
 * blocks, with @p slice instructions per scheduling slice; @p sink
 * (may be null) observes the core.
 */
SoloRun
runProducerAlone(Count slice, std::uint64_t seed, RecordingSink *sink)
{
    MachineConfig config;
    config.sliceInstructions = slice;
    Multicore machine(config);
    Core &core = machine.addCore("prod");
    auto *out = static_cast<CollectorQueue *>(&machine.addQueue(
        std::make_unique<CollectorQueue>("out")));

    core.setProgram(producer());
    ErrorInjector::Config injector;
    injector.enabled = true;
    injector.mtbe = kMtbe;
    injector.seed = seed;
    core.configureInjector(injector);
    core.setTraceSink(sink);
    machine.addRuntime(
        core,
        machine.addBackend(std::make_unique<RawBackend>(
            std::vector<QueueBase *>{}, std::vector<QueueBase *>{out})),
        kFrames);

    SoloRun run;
    run.completed = machine.run().completed;
    run.core = endState(core);
    run.output = out->items();
    return run;
}

/**
 * The interpreter retires straight-line runs against one budget: the
 * slice's end, the next watchdog limit and the next scheduled error.
 * A one-instruction slice checks all three after every commit, so any
 * slice size must end in exactly the same state, traced or not.
 */
TEST(CoreWriteBack, SliceSizeNeverChangesTheRun)
{
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        for (const bool traced : {false, true}) {
            RecordingSink base_sink;
            const SoloRun base =
                runProducerAlone(1, seed, traced ? &base_sink : nullptr);
            ASSERT_TRUE(base.completed);
            // Every budget boundary comes up: errors and nested trips.
            EXPECT_GT(base.core.errorsInjected, 0u);
            EXPECT_GT(base.core.counters.nestedScopeTrips, 0u);

            for (const Count slice : {2, 3, 7, 64, 97, 50'000}) {
                SCOPED_TRACE("seed " + std::to_string(seed) + ", slice " +
                             std::to_string(slice) +
                             (traced ? ", traced" : ""));
                RecordingSink sink;
                const SoloRun run =
                    runProducerAlone(slice, seed, traced ? &sink : nullptr);
                ASSERT_TRUE(run.completed);
                EXPECT_EQ(counterValues(run.core.counters),
                          counterValues(base.core.counters));
                EXPECT_EQ(run.core.regs, base.core.regs);
                EXPECT_TRUE(run.core.memory == base.core.memory);
                EXPECT_EQ(run.core.errorsInjected,
                          base.core.errorsInjected);
                EXPECT_EQ(run.output, base.output);
                EXPECT_EQ(sink.digest(), base_sink.digest());
            }
        }
    }
}

TEST(CoreWriteBack, TracedAndUntracedRunsEndAlike)
{
    RecordingSink sink;
    const PairRun traced = runPair(&sink);
    const PairRun plain = runPair(nullptr);
    ASSERT_TRUE(traced.completed);
    ASSERT_TRUE(plain.completed);

    // The workload reaches every call out of the run.
    EXPECT_GT(sink.count(Hook::ErrorInjected), 0u);
    EXPECT_GT(sink.count(Hook::QueueCorrupt), 0u);
    EXPECT_GT(sink.count(Hook::QueueBlock), 0u);
    EXPECT_GT(traced.producer.counters.scopeWatchdogTrips, 0u);
    EXPECT_GT(traced.producer.counters.nestedScopeTrips, 0u);
    EXPECT_GT(traced.consumer.counters.popTimeouts, 0u);
    EXPECT_GT(traced.producer.counters.pushTimeouts, 0u);

    EXPECT_EQ(counterValues(traced.producer.counters),
              counterValues(plain.producer.counters));
    EXPECT_EQ(counterValues(traced.consumer.counters),
              counterValues(plain.consumer.counters));
    EXPECT_EQ(traced.producer.regs, plain.producer.regs);
    EXPECT_EQ(traced.consumer.regs, plain.consumer.regs);
    EXPECT_TRUE(traced.producer.memory == plain.producer.memory);
    EXPECT_TRUE(traced.consumer.memory == plain.consumer.memory);
    EXPECT_EQ(traced.producer.errorsInjected,
              plain.producer.errorsInjected);
    EXPECT_EQ(traced.consumer.errorsInjected,
              plain.consumer.errorsInjected);
    EXPECT_EQ(traced.output, plain.output);
}

TEST(CoreWriteBack, EveryHookSeesPinnedState)
{
    RecordingSink sink;
    ASSERT_TRUE(runPair(&sink).completed);
    // Recorded from the interpreter that kept this state in members
    // (with this set of hooks): every hook must still observe exactly
    // what it observed there.
    EXPECT_EQ(sink.digest(), 0xcdde7a45a50feeccull);
}

} // namespace
} // namespace commguard
