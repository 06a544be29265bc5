/**
 * @file
 * Tests for the multicore machinery: producer/consumer pipelines,
 * blocking and QM timeouts (paper §5.1), deadlock breaking, error
 * injection determinism, and the exposure model for software queues.
 */

#include <gtest/gtest.h>

#include <memory>

#include "isa/assembler.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/io_queue.hh"
#include "queue/reliable_queue.hh"
#include "queue/software_queue.hh"

namespace commguard
{
namespace
{

using namespace isa;

/** Producer pushing v, v+1, ... n-1 per invocation (1 item each). */
Program
producerProgram(int items_per_frame)
{
    Assembler a("prod");
    const Word next = a.reserve(1);  // Persistent item counter.
    a.forDown(R30, static_cast<Word>(items_per_frame), [&] {
        a.lw(R2, R0, static_cast<SWord>(next));
        a.push(0, R2);
        a.addi(R2, R2, 1);
        a.sw(R2, R0, static_cast<SWord>(next));
    });
    return a.finalize();
}

/** Consumer forwarding input to output. */
Program
forwardProgram(int items_per_frame)
{
    Assembler a("fwd");
    a.forDown(R30, static_cast<Word>(items_per_frame), [&] {
        a.pop(R2, 0);
        a.push(0, R2);
    });
    return a.finalize();
}

TEST(Multicore, ProducerConsumerPipelineDeliversInOrder)
{
    Multicore machine;
    Core &prod = machine.addCore("prod");
    Core &cons = machine.addCore("cons");

    QueueBase &mid = machine.addQueue(
        std::make_unique<ReliableQueue>("mid", 8));
    auto collector_owned = std::make_unique<CollectorQueue>("out");
    CollectorQueue *collector = collector_owned.get();
    QueueBase &out = machine.addQueue(std::move(collector_owned));

    prod.setProgram(producerProgram(10));
    cons.setProgram(forwardProgram(10));

    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&mid}));
    CommBackend &cb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{&mid}, std::vector<QueueBase *>{&out}));

    machine.addRuntime(prod, pb, 5);
    machine.addRuntime(cons, cb, 5);

    const MachineRunResult result = machine.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(result.timeoutsFired, 0u);
    ASSERT_EQ(collector->items().size(), 50u);
    for (Word i = 0; i < 50; ++i)
        EXPECT_EQ(collector->items()[i], i);
}

TEST(Multicore, SmallQueueForcesBlockingButCompletes)
{
    // Queue of 2 words between a bursty producer and consumer.
    Multicore machine;
    machine.config().sliceInstructions = 64;
    Core &prod = machine.addCore("prod");
    Core &cons = machine.addCore("cons");

    QueueBase &mid = machine.addQueue(
        std::make_unique<ReliableQueue>("mid", 2));
    auto collector_owned = std::make_unique<CollectorQueue>("out");
    CollectorQueue *collector = collector_owned.get();
    QueueBase &out = machine.addQueue(std::move(collector_owned));

    prod.setProgram(producerProgram(64));
    cons.setProgram(forwardProgram(64));

    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&mid}));
    CommBackend &cb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{&mid}, std::vector<QueueBase *>{&out}));
    machine.addRuntime(prod, pb, 2);
    machine.addRuntime(cons, cb, 2);

    const MachineRunResult result = machine.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(collector->items().size(), 128u);
    EXPECT_GT(mid.counters().pushBlocked + mid.counters().popBlocked,
              0u);
}

TEST(Multicore, PopTimeoutBreaksStarvation)
{
    // A consumer with no producer: pops must eventually time out and
    // deliver zeros (paper §5.1) instead of hanging.
    MachineConfig config;
    config.timeoutRounds = 3;
    Multicore machine(config);
    Core &cons = machine.addCore("cons");

    QueueBase &in = machine.addQueue(
        std::make_unique<ReliableQueue>("in", 4));
    auto collector_owned = std::make_unique<CollectorQueue>("out");
    CollectorQueue *collector = collector_owned.get();
    QueueBase &out = machine.addQueue(std::move(collector_owned));

    cons.setProgram(forwardProgram(3));
    CommBackend &cb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{&in}, std::vector<QueueBase *>{&out}));
    machine.addRuntime(cons, cb, 1);

    const MachineRunResult result = machine.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(cons.counters().popTimeouts, 3u);
    EXPECT_EQ(collector->items(), (std::vector<Word>{0, 0, 0}));
}

TEST(Multicore, PushTimeoutDropsIntoFullQueue)
{
    MachineConfig config;
    config.timeoutRounds = 3;
    Multicore machine(config);
    Core &prod = machine.addCore("prod");

    QueueBase &out = machine.addQueue(
        std::make_unique<ReliableQueue>("out", 2));

    prod.setProgram(producerProgram(6));
    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&out}));
    machine.addRuntime(prod, pb, 1);

    const MachineRunResult result = machine.run();
    EXPECT_TRUE(result.completed);
    EXPECT_EQ(prod.counters().pushTimeouts, 4u);  // 6 items, cap 2.
    EXPECT_EQ(out.size(), 2u);
}

TEST(Multicore, CorruptedQueueDeadlockIsBroken)
{
    // A software queue whose tail pointer is pre-corrupted to look
    // permanently full: producer blocks, consumer pops garbage; the
    // scheduler's timeout/deadlock machinery must keep both threads
    // finishing (paper requirement: no hang).
    MachineConfig config;
    config.timeoutRounds = 4;
    Multicore machine(config);
    Core &prod = machine.addCore("prod");
    Core &cons = machine.addCore("cons");

    auto sw_owned = std::make_unique<SoftwareQueue>("mid", 8);
    SoftwareQueue *sw = sw_owned.get();
    QueueBase &mid = machine.addQueue(std::move(sw_owned));
    QueueBase &out = machine.addQueue(
        std::make_unique<CollectorQueue>("out"));

    sw->setTail(sw->tail() ^ (1u << 24));  // Bogus occupancy.

    prod.setProgram(producerProgram(8));
    cons.setProgram(forwardProgram(8));
    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&mid}));
    CommBackend &cb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{&mid}, std::vector<QueueBase *>{&out}));
    machine.addRuntime(prod, pb, 2);
    machine.addRuntime(cons, cb, 2);

    const MachineRunResult result = machine.run();
    EXPECT_TRUE(result.completed);
    EXPECT_GT(result.timeoutsFired, 0u);
}

TEST(Multicore, ErrorInjectionIsDeterministicPerSeed)
{
    auto run = [](std::uint64_t seed) {
        Multicore machine;
        Core &prod = machine.addCore("prod");
        QueueBase &out = machine.addQueue(
            std::make_unique<CollectorQueue>("out"));
        prod.setProgram(producerProgram(256));
        ErrorInjector::Config injector;
        injector.enabled = true;
        injector.mtbe = 200;
        injector.seed = seed;
        prod.configureInjector(injector);
        CommBackend &pb = machine.addBackend(
            std::make_unique<RawBackend>(
                std::vector<QueueBase *>{},
                std::vector<QueueBase *>{&out}));
        machine.addRuntime(prod, pb, 4);
        machine.run();
        return static_cast<CollectorQueue &>(out).items();
    };

    const auto a = run(5);
    const auto b = run(5);
    const auto c = run(6);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

TEST(Multicore, InjectorRateMatchesMtbe)
{
    Multicore machine;
    Core &prod = machine.addCore("prod");
    QueueBase &out = machine.addQueue(
        std::make_unique<CollectorQueue>("out"));
    prod.setProgram(producerProgram(10000));
    ErrorInjector::Config injector;
    injector.enabled = true;
    injector.mtbe = 1000;
    injector.seed = 3;
    prod.configureInjector(injector);
    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&out}));
    machine.addRuntime(prod, pb, 10);

    machine.run();
    const double insts =
        static_cast<double>(prod.counters().committedInsts);
    const double errors =
        static_cast<double>(prod.injector().errorsInjected());
    EXPECT_GT(errors, 0.0);
    EXPECT_NEAR(errors, insts / 1000.0, insts / 1000.0 * 0.35);
    EXPECT_EQ(prod.counters().registerFlips,
              prod.injector().errorsInjected());
}

TEST(Multicore, SoftwareQueueExposureCorruptsQueueState)
{
    // With an extremely high error rate, the exposure windows of
    // software queue routines must hit the queue management state.
    Multicore machine;
    Core &prod = machine.addCore("prod");
    QueueBase &mid = machine.addQueue(
        std::make_unique<SoftwareQueue>("mid", 1 << 12));

    prod.setProgram(producerProgram(512));
    ErrorInjector::Config injector;
    injector.enabled = true;
    injector.mtbe = 20;  // Roughly one error per queue op.
    injector.seed = 9;
    prod.configureInjector(injector);
    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&mid}));
    machine.addRuntime(prod, pb, 1);

    machine.run();
    const QueueCounters &c = mid.counters();
    EXPECT_GT(c.headCorruptions + c.tailCorruptions +
                  c.itemCorruptions,
              0u);
}

TEST(Multicore, CollectStatsExposesTree)
{
    Multicore machine;
    Core &prod = machine.addCore("prod");
    QueueBase &out = machine.addQueue(
        std::make_unique<CollectorQueue>("sink"));
    prod.setProgram(producerProgram(4));
    CommBackend &pb = machine.addBackend(std::make_unique<RawBackend>(
        std::vector<QueueBase *>{}, std::vector<QueueBase *>{&out}));
    machine.addRuntime(prod, pb, 2);
    machine.run();

    const metrics::MetricSnapshot stats = machine.metrics().snapshot();
    EXPECT_GT(stats.get("node/prod/committedInsts"), 0u);
    EXPECT_EQ(stats.get("node/prod/invocations"), 2u);
    EXPECT_EQ(stats.get("queue/sink/pushes"), 8u);
}

TEST(Multicore, GlobalWatchdogAbortsRunaway)
{
    // Two producers pushing to each other... simplest runaway: a
    // producer whose watchdog budget is enormous relative to the
    // global cap.
    MachineConfig config;
    config.globalWatchdogInsts = 5000;
    config.ppu.defaultScopeBudget = 1'000'000;
    Multicore machine(config);
    Core &core = machine.addCore("spin");

    Assembler a("spin");
    a.label("top");
    a.addi(R1, R1, 1);
    a.jmp("top");
    core.setProgram(a.finalize());

    CommBackend &backend = machine.addBackend(
        std::make_unique<RawBackend>(std::vector<QueueBase *>{},
                                     std::vector<QueueBase *>{}));
    machine.addRuntime(core, backend, 1000);

    const MachineRunResult result = machine.run();
    EXPECT_FALSE(result.completed);
    EXPECT_LT(result.totalInstructions, 200'000u);
}

} // namespace
} // namespace commguard
