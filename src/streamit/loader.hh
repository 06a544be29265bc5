/**
 * @file
 * Graph loader: instantiates a stream graph onto a simulated multicore
 * under a chosen protection configuration (paper Fig. 3).
 *
 * One filter maps to one core (the paper's cluster backend pins one
 * thread per processor). Each edge becomes a queue whose implementation
 * is chosen by the protection mode's registry descriptor; the external
 * input becomes a reliable pre-filled SourceQueue (framed with headers
 * or checksums when the mode's consumers expect them — the reliable
 * input device acts as a framing producer) and the external output
 * becomes a CollectorQueue.
 */

#ifndef COMMGUARD_STREAMIT_LOADER_HH
#define COMMGUARD_STREAMIT_LOADER_HH

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "common/recycle_pool.hh"
#include "machine/multicore.hh"
#include "queue/io_queue.hh"
#include "sim/protection.hh"
#include "streamit/schedule.hh"

namespace commguard::streamit
{

/** Loader options. */
struct LoadOptions
{
    protection::ProtectionMode mode =
        protection::ProtectionMode::CommGuard;

    /** False models fully error-free cores (Fig. 3a / overhead runs). */
    bool injectErrors = true;

    /** Per-core mean instructions between register-file bit flips. */
    double mtbe = 1e6;

    /**
     * Heterogeneous error rates (docs/SERVICE.md): one MTBE per node
     * in graph node order. Empty means uniform (mtbe). When set, the
     * size must equal the node count; every entry must be positive.
     */
    std::vector<double> perCoreMtbe;

    /** Base RNG seed; per-core injector seeds derive from it. */
    std::uint64_t seed = 1;

    /** Ablation: flip all 31 registers instead of the live set. */
    bool flipAllRegisters = false;

    /** Frame-size knob (§5.4): steady iterations per CommGuard frame. */
    Count frameScale = 1;

    /**
     * Varying frame definitions across the application (§5.4): one
     * frame scale per node. Empty means uniform (frameScale). Each
     * edge is guarded at the coarser granularity of its two endpoint
     * domains (their least common multiple), implemented with a
     * redundant active-fc counter per frame domain.
     */
    std::vector<Count> perNodeFrameScale;

    /**
     * Guard the external input edge (frame headers or checksums,
     * depending on the mode's source framing): the reliable input
     * device acts as a framing producer, letting the first filter's
     * protection repair its own input reads. Disable to quantify that
     * modeling decision (`bench/ablation_source_guard`).
     */
    bool guardSourceEdge = true;

    /**
     * Use a frame-aligned output device (CommGuard mode only): the
     * collector places each frame's items at the offset named by its
     * header, so sink-side miscounts corrupt one frame's record
     * instead of shifting the rest of the output stream.
     */
    bool frameAlignedOutput = false;

    /** Executions per firing for replicating modes (>= 2). */
    int replicas = 2;

    /** Minimum queue capacity in words. */
    std::size_t queueCapacityWords = 1u << 12;

    /**
     * Service mode (docs/SERVICE.md): leave the external source empty
     * at load time; the service driver appends framed arrivals while
     * the machine runs. Totals (steady iterations, end-of-computation
     * framing expectations) are still sized from steady_iterations.
     * Driver-internal — not part of the run descriptor.
     */
    bool streamingSource = false;

    MachineConfig machine;
};

/** A graph instantiated on a machine, ready to run. */
struct LoadedApp
{
    std::unique_ptr<Multicore> machine;
    SourceQueue *source = nullptr;
    CollectorQueue *collector = nullptr;

    /**
     * The source stream's framer. A batch load has already framed the
     * whole input through it; with LoadOptions::streamingSource it
     * stands at frame 0 for the service driver's bursts.
     */
    protection::SourceFramer sourceFramer;

    FrameAnalysis frames;
    Count steadyIterations = 0;

    /** Run to completion and return the collected output stream. */
    MachineRunResult run() { return machine->run(); }

    /** Output items recorded by the collector. */
    const std::vector<Word> &output() const
    {
        return collector->items();
    }
};

/**
 * Reusable per-worker loader state (sweep hot path).
 *
 * A sweep loads the same handful of graphs thousands of times; without
 * reuse every load allocates fresh core-local memories (512 KiB per
 * core), queue rings, and the framed source stream — large enough that
 * malloc serves them with mmap, and the resulting mmap/munmap churn
 * serializes parallel workers on the kernel's address-space lock. A
 * LoaderScratch owns freelists those buffers are drawn from and retired
 * to, plus caches of pure loader intermediates.
 *
 * NOT thread-safe: one LoaderScratch per worker thread.
 *
 * Determinism: recycled buffers are re-zeroed on acquisition
 * (RecyclePool contract) and cached programs are copied pristine before
 * any per-load mutation, so a load with a scratch is bit-identical to a
 * load without one.
 */
struct LoaderScratch
{
    /** Freelist for core-local memories (the dominant allocation). */
    RecyclePool<Word> coreMemory;

    /** Freelist for edge rings and the framed source stream. */
    RecyclePool<QueueWord> queueWords;

    /** Reused zero-padding staging buffer for the input stream. */
    std::vector<Word> paddedInput;

    /**
     * Pristine per-(graph, node) programs, assembled once and copied
     * per load (loadGraph folds mode-dependent queue op costs into the
     * copy, never the cached original). Keyed by graph address: valid
     * only while the keyed graphs are alive, so call beginBatch() at
     * the start of each batch of runs to drop entries whose graph
     * address could be reused by a newer graph.
     */
    std::map<std::pair<const StreamGraph *, int>, isa::Program> programs;

    /** Invalidate graph-address-keyed caches (call once per batch). */
    void beginBatch() { programs.clear(); }
};

/**
 * Instantiate @p graph for @p steady_iterations steady-state
 * iterations over the given input stream.
 *
 * The input must contain steady_iterations * inputItemsPerFrame words;
 * shorter inputs are zero-padded with a warning.
 *
 * @param scratch Optional reusable loader state; must outlive the
 * returned app (its machine retires buffers back into the scratch on
 * destruction). Passing one does not change the loaded app's behavior.
 */
LoadedApp loadGraph(const StreamGraph &graph,
                    const std::vector<Word> &input,
                    Count steady_iterations, const LoadOptions &options,
                    LoaderScratch *scratch = nullptr);

} // namespace commguard::streamit

#endif // COMMGUARD_STREAMIT_LOADER_HH
