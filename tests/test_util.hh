/**
 * @file
 * Shared test fixtures: a single-core kernel harness that runs one
 * filter program against scripted input streams and collects its
 * outputs, plus small helpers for backends and float/word vectors.
 */

#ifndef COMMGUARD_TESTS_TEST_UTIL_HH
#define COMMGUARD_TESTS_TEST_UTIL_HH

#include <memory>
#include <vector>

#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/io_queue.hh"

namespace commguard::test
{

/** Result of a single-kernel run. */
struct KernelRun
{
    /** Collected words per output port. */
    std::vector<std::vector<Word>> outputs;

    /** True when every frame completed. */
    bool completed = false;

    Count committedInsts = 0;
};

/**
 * Execute @p program on one error-free core for @p frames frame
 * computations. inputs[i] feeds input port i (plain items, no
 * headers); outputs are collected per output port.
 */
inline KernelRun
runKernel(isa::Program program,
          const std::vector<std::vector<Word>> &inputs, Count frames)
{
    Multicore machine;
    Core &core = machine.addCore("kernel");

    std::vector<QueueBase *> ins;
    for (std::size_t i = 0; i < inputs.size(); ++i) {
        std::vector<QueueWord> words;
        words.reserve(inputs[i].size());
        for (Word w : inputs[i])
            words.push_back(makeItem(w));
        ins.push_back(&machine.addQueue(std::make_unique<SourceQueue>(
            "in" + std::to_string(i), std::move(words))));
    }

    std::vector<QueueBase *> outs;
    std::vector<CollectorQueue *> collectors;
    for (int i = 0; i < program.numOutPorts; ++i) {
        auto collector = std::make_unique<CollectorQueue>(
            "out" + std::to_string(i));
        collectors.push_back(collector.get());
        outs.push_back(&machine.addQueue(std::move(collector)));
    }

    core.setProgram(std::move(program));
    CommBackend &backend = machine.addBackend(
        std::make_unique<RawBackend>(ins, outs));
    machine.addRuntime(core, backend, frames);

    const MachineRunResult result = machine.run();

    KernelRun run;
    run.completed = result.completed;
    run.committedInsts = result.totalInstructions;
    for (CollectorQueue *collector : collectors)
        run.outputs.push_back(collector->items());
    return run;
}

/**
 * The CommGuard backends of @p machine's runtimes in node order (empty
 * unless the machine was loaded in CommGuard mode).
 */
inline std::vector<CommGuardBackend *>
commGuardBackends(Multicore &machine)
{
    std::vector<CommGuardBackend *> backends;
    for (const auto &runtime : machine.runtimes()) {
        if (auto *cg =
                dynamic_cast<CommGuardBackend *>(&runtime->backend()))
            backends.push_back(cg);
    }
    return backends;
}

/** Pack floats into words. */
inline std::vector<Word>
toWords(const std::vector<float> &floats)
{
    std::vector<Word> words;
    words.reserve(floats.size());
    for (float f : floats)
        words.push_back(floatToWord(f));
    return words;
}

/** Interpret words as floats. */
inline std::vector<float>
toFloats(const std::vector<Word> &words)
{
    std::vector<float> floats;
    floats.reserve(words.size());
    for (Word w : words)
        floats.push_back(wordToFloat(w));
    return floats;
}

} // namespace commguard::test

#endif // COMMGUARD_TESTS_TEST_UTIL_HH
