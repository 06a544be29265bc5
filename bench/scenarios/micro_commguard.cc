/**
 * @file
 * Google-benchmark micro suite for CommGuard's reliable modules: ECC
 * codec, header construction, queue push/pop, alignment-manager pop
 * paths, and header insertion. These quantify the per-operation costs
 * behind Table 3. The suite registers as scenario `micro_commguard`;
 * its benchmarks are selected by name prefix from the process-wide
 * google-benchmark registry.
 */

#include <benchmark/benchmark.h>

#include <iostream>
#include <memory>
#include <vector>

#include "bench/scenarios/micro_suite.hh"
#include "commguard/alignment_manager.hh"
#include "commguard/header_inserter.hh"
#include "common/ecc.hh"
#include "queue/reliable_queue.hh"
#include "queue/software_queue.hh"
#include "queue/working_set_queue.hh"

namespace commguard
{
namespace
{

void
BM_EccEncode(benchmark::State &state)
{
    Word w = 0x12345678;
    for (auto _ : state) {
        benchmark::DoNotOptimize(eccEncode(w));
        ++w;
    }
}
BENCHMARK(BM_EccEncode);

void
BM_EccDecodeClean(benchmark::State &state)
{
    const EccWord code = eccEncode(0xdeadbeef);
    for (auto _ : state)
        benchmark::DoNotOptimize(eccDecode(code));
}
BENCHMARK(BM_EccDecodeClean);

void
BM_EccDecodeCorrupted(benchmark::State &state)
{
    const EccWord code = eccFlipBit(eccEncode(0xdeadbeef), 13);
    for (auto _ : state)
        benchmark::DoNotOptimize(eccDecode(code));
}
BENCHMARK(BM_EccDecodeCorrupted);

void
BM_EccDecodeUncorrectable(benchmark::State &state)
{
    const EccWord code =
        eccFlipBit(eccFlipBit(eccEncode(0xdeadbeef), 13), 30);
    for (auto _ : state)
        benchmark::DoNotOptimize(eccDecode(code));
}
BENCHMARK(BM_EccDecodeUncorrectable);

void
BM_MakeHeader(benchmark::State &state)
{
    FrameId id = 1;
    for (auto _ : state)
        benchmark::DoNotOptimize(makeHeader(id++));
}
BENCHMARK(BM_MakeHeader);

template <typename QueueType>
void
BM_QueuePushPop(benchmark::State &state)
{
    QueueType queue("q", 1024);
    const QueueWord item = makeItem(42);
    QueueWord out;
    for (auto _ : state) {
        queue.tryPush(item);
        queue.tryPop(out);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK_TEMPLATE(BM_QueuePushPop, ReliableQueue);
BENCHMARK_TEMPLATE(BM_QueuePushPop, SoftwareQueue);
BENCHMARK_TEMPLATE(BM_QueuePushPop, WorkingSetQueue);

void
BM_AmAlignedPop(benchmark::State &state)
{
    // Steady-state RcvCmp item delivery.
    CgCounters counters;
    WorkingSetQueue queue("q", 1024);
    QueueManager qm(queue, counters);
    AlignmentManager am(counters);
    for (auto _ : state) {
        queue.tryPush(makeItem(7));
        benchmark::DoNotOptimize(am.onPop(qm, 0));
    }
}
BENCHMARK(BM_AmAlignedPop);

void
BM_AmHeaderCrossing(benchmark::State &state)
{
    // Frame boundary: new frame computation + header consumption.
    CgCounters counters;
    WorkingSetQueue queue("q", 1024);
    QueueManager qm(queue, counters);
    AlignmentManager am(counters);
    FrameId fc = 0;
    for (auto _ : state) {
        ++fc;
        queue.tryPush(makeHeader(fc));
        queue.tryPush(makeItem(1));
        am.onNewFrameComputation(fc);
        benchmark::DoNotOptimize(am.onPop(qm, fc));
    }
}
BENCHMARK(BM_AmHeaderCrossing);

void
BM_HeaderInsertion(benchmark::State &state)
{
    const int ports = static_cast<int>(state.range(0));
    CgCounters counters;
    std::vector<std::unique_ptr<WorkingSetQueue>> queues;
    std::vector<QueueManager> qms;
    qms.reserve(ports);
    for (int i = 0; i < ports; ++i) {
        std::string name = "q";
        name += std::to_string(i);
        queues.push_back(
            std::make_unique<WorkingSetQueue>(std::move(name), 1024));
        qms.emplace_back(*queues[i], counters);
    }
    std::vector<QueueManager *> qm_ptrs;
    for (QueueManager &qm : qms)
        qm_ptrs.push_back(&qm);
    HeaderInserter hi(qm_ptrs, counters);

    FrameId id = 0;
    QueueWord sink;
    for (auto _ : state) {
        hi.insert(++id);
        for (auto &queue : queues)
            queue->tryPop(sink);
    }
}
BENCHMARK(BM_HeaderInsertion)->Arg(1)->Arg(4);

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Micro: CommGuard reliable-module hot paths "
                 "(Table 3 per-operation costs) ===\n\n";
    // Everything registered by this file; excludes the BM_Interpreter*
    // suite living in micro_machine.cc.
    bench::runMicroSuite(ctx, "micro_commguard",
                         "BM_(Ecc|MakeHeader|QueuePushPop|Am|"
                         "HeaderInsertion)");
}

const sim::ScenarioRegistrar registrar({
    "micro_commguard",
    "per-operation costs of the reliable modules (ECC, headers, "
    "queues, AM)",
    "Table 3",
    {"micro", "perf"},
    runScenario,
});

} // namespace
} // namespace commguard
