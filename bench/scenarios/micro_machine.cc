/**
 * @file
 * Google-benchmark micro suite for the functional simulator itself:
 * interpreter throughput per opcode class — ALU, floating point,
 * branch, load/store, queue push/pop (raw and behind CommGuard) — and
 * on a real kernel (IDCT), plus the cost of error
 * injection. Simulated instructions per second determine how fast the
 * figure sweeps run. Registers as scenario
 * `micro_machine`; its benchmarks are selected by the BM_Interpreter
 * name prefix from the process-wide google-benchmark registry.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <iostream>
#include <memory>

#include "bench/scenarios/micro_suite.hh"
#include "isa/assembler.hh"
#include "kernels/jpeg_kernels.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/io_queue.hh"

namespace commguard
{
namespace
{

using namespace isa;

/** ALU-only loop: the interpreter's best case. */
Program
aluLoop()
{
    Assembler a("alu");
    a.forDown(R30, 1024, [&] {
        a.addi(R1, R1, 3);
        a.xor_(R2, R1, R2);
        a.slli(R3, R1, 2);
        a.add(R2, R2, R3);
    });
    return a.finalize();
}

/**
 * FP loop: multiply-add, min and compare on float registers. The
 * value grows slowly and stays finite over the 1024 iterations.
 */
Program
fpLoop()
{
    Assembler a("fp");
    a.lif(R1, 1.0001f);
    a.lif(R2, 0.5f);
    a.forDown(R30, 1024, [&] {
        a.fmul(R3, R3, R1);
        a.fadd(R3, R3, R2);
        a.fmin(R4, R3, R1);
        a.flt(R5, R4, R2);
        a.fsub(R6, R3, R4);
    });
    return a.finalize();
}

/**
 * Branch loop: four conditional branches per iteration besides the
 * loop's own, one taken every other iteration, one always taken and
 * two never taken.
 */
Program
branchLoop()
{
    Assembler a("branch");
    a.forDown(R30, 1024, [&] {
        a.andi(R1, R30, 1);
        a.beq(R1, R0, "even");
        a.addi(R2, R2, 1);
        a.label("even");
        a.blt(R30, R0, "never");
        a.bgeu(R30, R0, "join");
        a.label("never");
        a.addi(R3, R3, 1);
        a.label("join");
        a.bltu(R30, R1, "never");
    });
    return a.finalize();
}

/** Load/store loop: read-modify-write over a 1k-word array. */
Program
loadStoreLoop()
{
    Assembler a("ldst");
    const Word base = a.reserve(1024);
    a.li(R1, base);
    a.forDown(R30, 512, [&] {
        a.lw(R2, R1, 0);
        a.lw(R3, R1, 1);
        a.sw(R3, R1, 0);
        a.sw(R2, R1, 1);
        a.addi(R1, R1, 2);
    });
    return a.finalize();
}

/** Queue loop: every item popped from the source is pushed on. */
Program
queueLoop()
{
    Assembler a("queue");
    a.forDown(R30, 1024, [&] {
        a.pop(R1, 0);
        a.push(0, R1);
    });
    return a.finalize();
}

/** Data items carrying @p values. */
std::vector<QueueWord>
items(const std::vector<Word> &values)
{
    std::vector<QueueWord> words;
    for (Word w : values)
        words.push_back(makeItem(w));
    return words;
}

/**
 * Time 16 invocations of @p program fed by @p input, on a RawBackend
 * or, with @p commguard, on a CommGuardBackend.
 */
void
runProgramBench(benchmark::State &state, Program program,
                bool inject, std::vector<QueueWord> input = {},
                bool commguard = false)
{
    const auto input_items = static_cast<Count>(
        std::count_if(input.begin(), input.end(),
                      [](const QueueWord &w) { return !w.isHeader; }));
    for (auto _ : state) {
        state.PauseTiming();
        Multicore machine;
        Core &core = machine.addCore("c");
        std::vector<QueueBase *> ins;
        std::vector<QueueBase *> outs;
        if (program.numInPorts > 0) {
            ins.push_back(&machine.addQueue(
                std::make_unique<SourceQueue>("in", input)));
        }
        if (program.numOutPorts > 0) {
            outs.push_back(&machine.addQueue(
                std::make_unique<CollectorQueue>("out")));
        }
        core.setProgram(program);
        if (inject) {
            ErrorInjector::Config config;
            config.enabled = true;
            config.mtbe = 10'000;
            config.seed = 1;
            core.configureInjector(config);
        }
        std::unique_ptr<CommBackend> made;
        if (commguard)
            made = std::make_unique<CommGuardBackend>(ins, outs);
        else
            made = std::make_unique<RawBackend>(ins, outs);
        CommBackend &backend = machine.addBackend(std::move(made));
        machine.addRuntime(core, backend, 16);
        state.ResumeTiming();

        machine.run();
        if (commguard && static_cast<CommGuardBackend &>(backend)
                                 .counters()
                                 .acceptedItems != input_items) {
            // Every item must reach the program: no pad, no discard.
            state.SkipWithError("CommGuard run did not stay aligned");
            break;
        }
        state.counters["sim_insts_per_s"] = benchmark::Counter(
            static_cast<double>(core.counters().committedInsts),
            benchmark::Counter::kIsIterationInvariantRate);
    }
}

void
BM_InterpreterAluLoop(benchmark::State &state)
{
    runProgramBench(state, aluLoop(), false);
}
BENCHMARK(BM_InterpreterAluLoop)->Unit(benchmark::kMicrosecond);

void
BM_InterpreterAluLoopWithInjection(benchmark::State &state)
{
    runProgramBench(state, aluLoop(), true);
}
BENCHMARK(BM_InterpreterAluLoopWithInjection)
    ->Unit(benchmark::kMicrosecond);

void
BM_InterpreterFpLoop(benchmark::State &state)
{
    runProgramBench(state, fpLoop(), false);
}
BENCHMARK(BM_InterpreterFpLoop)->Unit(benchmark::kMicrosecond);

void
BM_InterpreterBranchLoop(benchmark::State &state)
{
    runProgramBench(state, branchLoop(), false);
}
BENCHMARK(BM_InterpreterBranchLoop)->Unit(benchmark::kMicrosecond);

void
BM_InterpreterIdctKernel(benchmark::State &state)
{
    std::vector<Word> input;
    for (int i = 0; i < 64 * 16; ++i)
        input.push_back(floatToWord(static_cast<float>(i % 64)));
    runProgramBench(state, kernels::buildIdct8x8(1), false,
                    items(input));
}
BENCHMARK(BM_InterpreterIdctKernel)->Unit(benchmark::kMicrosecond);

void
BM_InterpreterLoadStoreLoop(benchmark::State &state)
{
    runProgramBench(state, loadStoreLoop(), false);
}
BENCHMARK(BM_InterpreterLoadStoreLoop)->Unit(benchmark::kMicrosecond);

void
BM_InterpreterQueueLoop(benchmark::State &state)
{
    // 16 invocations x 1024 pops, all pre-filled: no pop ever blocks.
    std::vector<Word> input(16 * 1024);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<Word>(i);
    runProgramBench(state, queueLoop(), false, items(input));
}
BENCHMARK(BM_InterpreterQueueLoop)->Unit(benchmark::kMicrosecond);

void
BM_InterpreterQueueLoopCommGuard(benchmark::State &state)
{
    // The same loop behind CommGuard: a header opens each 1,024-item
    // frame, so every pop crosses the alignment manager and every push
    // the output queue manager; each invocation starts a frame and
    // inserts its header into the collector.
    std::vector<QueueWord> input;
    for (FrameId frame = 1; frame <= 16; ++frame) {
        input.push_back(makeHeader(frame));
        for (Word i = 0; i < 1024; ++i)
            input.push_back(makeItem(i));
    }
    runProgramBench(state, queueLoop(), false, std::move(input), true);
}
BENCHMARK(BM_InterpreterQueueLoopCommGuard)
    ->Unit(benchmark::kMicrosecond);

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Micro: functional-simulator interpreter "
                 "throughput ===\n\n";
    bench::runMicroSuite(ctx, "micro_machine", "BM_Interpreter");
}

const sim::ScenarioRegistrar registrar({
    "micro_machine",
    "interpreter throughput on representative kernels, with and "
    "without injection",
    "§6 methodology (simulator speed)",
    {"micro", "perf"},
    runScenario,
});

} // namespace
} // namespace commguard
