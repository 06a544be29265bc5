#include "probes.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "commguard/alignment_manager.hh"
#include "commguard/header_inserter.hh"
#include "common/ecc.hh"
#include "isa/assembler.hh"
#include "kernels/jpeg_kernels.hh"
#include "machine/backends.hh"
#include "machine/multicore.hh"
#include "queue/io_queue.hh"
#include "queue/reliable_queue.hh"
#include "queue/software_queue.hh"
#include "queue/working_set_queue.hh"
#include "span.hh"

namespace perfbench
{

using namespace commguard;

namespace
{

/** Keep @p value alive so the compiler cannot drop the call. */
template <typename T>
inline void
keep(const T &value)
{
    asm volatile("" : : "r,m"(value) : "memory");
}

constexpr int kBatches = 7;

/** Median of @p samples (sorts a copy). */
double
median(std::vector<double> samples)
{
    std::sort(samples.begin(), samples.end());
    return samples[samples.size() / 2];
}

/**
 * ns per call of @p body over @p iterations calls, median of kBatches
 * timed batches after one untimed warm-up batch.
 */
template <typename Body>
double
nsPerCall(long iterations, Body body)
{
    std::vector<double> samples;
    for (int batch = 0; batch <= kBatches; ++batch) {
        const std::int64_t start = nowNs();
        for (long i = 0; i < iterations; ++i)
            body(i);
        const std::int64_t elapsed = nowNs() - start;
        if (batch > 0)
            samples.push_back(static_cast<double>(elapsed) /
                              static_cast<double>(iterations));
    }
    return median(samples);
}

template <typename QueueType>
double
queuePushPopNs()
{
    QueueType queue("q", 1024);
    const QueueWord item = makeItem(42);
    QueueWord out;
    return nsPerCall(200'000, [&](long) {
        queue.tryPush(item);
        queue.tryPop(out);
        keep(out);
    });
}

/** ALU-only loop: the interpreter's best case (as in micro_machine). */
isa::Program
aluLoop()
{
    using namespace isa;
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
 * Host ns per committed instruction of @p program on a one-core raw
 * machine, timing Multicore::run() only (machine construction is
 * excluded); median over several fresh machines.
 */
double
interpNsPerInst(const isa::Program &program, bool inject,
                const std::vector<Word> &input)
{
    std::vector<double> samples;
    for (int rep = 0; rep <= 2 * kBatches; ++rep) {
        Multicore machine;
        Core &core = machine.addCore("c");
        std::vector<QueueBase *> ins;
        std::vector<QueueBase *> outs;
        if (program.numInPorts > 0) {
            std::vector<QueueWord> words;
            for (Word w : input)
                words.push_back(makeItem(w));
            ins.push_back(&machine.addQueue(
                std::make_unique<SourceQueue>("in", words)));
        }
        if (program.numOutPorts > 0)
            outs.push_back(&machine.addQueue(
                std::make_unique<CollectorQueue>("out")));
        core.setProgram(program);
        if (inject) {
            ErrorInjector::Config config;
            config.enabled = true;
            config.mtbe = 10'000;
            config.seed = 1;
            core.configureInjector(config);
        }
        CommBackend &backend = machine.addBackend(
            std::make_unique<RawBackend>(ins, outs));
        machine.addRuntime(core, backend, 16);

        const std::int64_t start = nowNs();
        machine.run();
        const std::int64_t elapsed = nowNs() - start;
        if (rep > 0)
            samples.push_back(
                static_cast<double>(elapsed) /
                static_cast<double>(core.counters().committedInsts));
    }
    return median(samples);
}

} // namespace

std::map<std::string, double>
runProbes()
{
    std::map<std::string, double> ns;

    ns["ecc.encode_ns"] = nsPerCall(50'000, [](long i) {
        keep(eccEncode(static_cast<Word>(0x12345678 + i)));
    });
    {
        std::vector<EccWord> codes;
        for (int i = 0; i < 64; ++i)
            codes.push_back(eccEncode(0xdeadbeef + i));
        ns["ecc.decode_ns"] = nsPerCall(50'000, [&](long i) {
            keep(eccDecode(codes[i & 63]));
        });
    }
    ns["cg.make_header_ns"] = nsPerCall(50'000, [](long i) {
        keep(makeHeader(static_cast<FrameId>(i + 1)));
    });

    ns["queue.push_pop_ns.reliable"] = queuePushPopNs<ReliableQueue>();
    ns["queue.push_pop_ns.software"] = queuePushPopNs<SoftwareQueue>();
    ns["queue.push_pop_ns.workingset"] =
        queuePushPopNs<WorkingSetQueue>();

    {
        // Steady-state RcvCmp item delivery.
        CgCounters counters;
        WorkingSetQueue queue("q", 1024);
        QueueManager qm(queue, counters);
        AlignmentManager am(counters);
        ns["am.aligned_pop_ns"] = nsPerCall(200'000, [&](long) {
            queue.tryPush(makeItem(7));
            keep(am.onPop(qm, 0));
        });
    }
    {
        // Frame boundary: new frame computation + header consumption.
        CgCounters counters;
        WorkingSetQueue queue("q", 1024);
        QueueManager qm(queue, counters);
        AlignmentManager am(counters);
        FrameId fc = 0;
        ns["am.header_crossing_ns"] = nsPerCall(20'000, [&](long) {
            ++fc;
            queue.tryPush(makeHeader(fc));
            queue.tryPush(makeItem(1));
            am.onNewFrameComputation(fc);
            keep(am.onPop(qm, fc));
        });
    }
    {
        // One header into each of four outgoing queues.
        CgCounters counters;
        std::vector<std::unique_ptr<WorkingSetQueue>> queues;
        std::vector<QueueManager> qms;
        qms.reserve(4);
        for (int i = 0; i < 4; ++i) {
            queues.push_back(
                std::make_unique<WorkingSetQueue>("q", 1024));
            qms.emplace_back(*queues[i], counters);
        }
        std::vector<QueueManager *> qm_ptrs;
        for (QueueManager &qm : qms)
            qm_ptrs.push_back(&qm);
        HeaderInserter hi(qm_ptrs, counters);
        FrameId id = 0;
        QueueWord sink;
        ns["hi.insert_ns"] = nsPerCall(20'000, [&](long) {
            hi.insert(++id);
            for (auto &queue : queues)
                queue->tryPop(sink);
        });
    }

    const isa::Program alu = aluLoop();
    ns["interp.alu_ns_per_inst"] = interpNsPerInst(alu, false, {});
    ns["interp.inject_ns_per_inst"] = interpNsPerInst(alu, true, {});
    {
        std::vector<Word> input;
        for (int i = 0; i < 64 * 16; ++i)
            input.push_back(floatToWord(static_cast<float>(i % 64)));
        ns["interp.idct_ns_per_inst"] =
            interpNsPerInst(kernels::buildIdct8x8(1), false, input);
    }
    return ns;
}

} // namespace perfbench
