/**
 * @file
 * The protection-backend registry: the extensible vocabulary of
 * communication-protection configurations.
 *
 * Historically `ProtectionMode` was a closed three-value enum owned by
 * the graph loader, and the loader hard-wired one queue class and one
 * backend class per value. This module inverts that: a protection mode
 * is an opaque id minted by the ProtectionRegistry, and everything the
 * rest of the system needs to know about it — its canonical name, its
 * edge-queue substrate, its per-core CommBackend factory, its repair
 * counters, and the loader hooks for source framing and cost
 * accounting — lives in a self-describing ModeDescriptor. The loader,
 * the experiment layer, the JSONL/BENCH exporters, the fuzz harness,
 * and the scenario registry all iterate the registry instead of
 * switching on the enum, so adding a protection mode is one
 * registration, not surgery.
 *
 * Built-in modes (registered in id order, names are the JSONL schema
 * vocabulary):
 *  - "raw"            corruptible software queues (Fig. 3b);
 *                     parse alias: "ppu-only" (the pre-registry name)
 *  - "reliable-queue" reliable hardware queues, no alignment (Fig. 3c)
 *  - "commguard"      reliable QM + HI + AM (Fig. 3d)
 *  - "replicate"      N-modular filter-firing replication with output
 *                     voting over reliable queues (PAPERS.md
 *                     "Protecting Futures" task replication)
 *  - "abft"           checksum-augmented streams over corruptible
 *                     software queues (FT-GEMM-style ABFT)
 */

#ifndef COMMGUARD_SIM_PROTECTION_HH
#define COMMGUARD_SIM_PROTECTION_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.hh"
#include "common/recycle_pool.hh"
#include "common/types.hh"
#include "machine/comm_backend.hh"
#include "queue/queue_word.hh"

namespace commguard::protection
{

/**
 * Opaque protection-mode id. The named constants are the built-in
 * registrations; ProtectionRegistry::add() mints fresh ids beyond
 * them. Only the registry gives an id meaning — never switch on it.
 */
enum class ProtectionMode : std::uint8_t
{
    Raw = 0,        //!< Corruptible software queues (Fig. 3b).
    ReliableQueue = 1,  //!< Reliable queues, no CommGuard (Fig. 3c).
    CommGuard = 2,      //!< Reliable QM + HI + AM (Fig. 3d).
    Replicate = 3,      //!< Filter-firing replication + voting.
    Abft = 4,           //!< Checksum-augmented streams.
};

/** How the reliable input device frames the source stream. */
enum class SourceFraming
{
    Plain,      //!< Data items only.
    Headers,    //!< CommGuard frame headers before each frame block.
    Checksums,  //!< ABFT checksum header-words after each block.
};

/**
 * The reliable input device's framer: turns input values into the
 * source stream the mode's first consumer expects. It keeps its
 * position across calls, so the batch loader can pre-fill a whole run
 * and the service driver can append burst after burst through the one
 * implementation.
 */
class SourceFramer
{
  public:
    SourceFramer() = default;

    /**
     * @param framing          Words the device adds around the items.
     * @param items_per_frame  Input items per frame.
     * @param frames_per_block Frames per protection block (the source
     *                         node's frame scale; 0 reads as 1).
     */
    SourceFramer(SourceFraming framing, Count items_per_frame,
                 Count frames_per_block);

    SourceFraming framing() const { return _framing; }

    /**
     * Append @p frames frames read from @p values (items_per_frame
     * each) to @p out. Headers: a frame header before each block, ids
     * from 1. Checksums: the S/W checksum header pair after each full
     * block.
     */
    void appendFrames(const Word *values, Count frames,
                      std::vector<QueueWord> &out);

    /**
     * Close the stream. Headers: the end-of-computation header.
     * Checksums: the checksums of a final partial block, if any.
     */
    void finish(std::vector<QueueWord> &out);

  private:
    void sealBlock(std::vector<QueueWord> &out);

    SourceFraming _framing = SourceFraming::Plain;
    Count _itemsPerFrame = 0;
    Count _framesPerBlock = 1;
    Count _frames = 0;      //!< Frames appended so far.
    Count _blockItems = 0;  //!< Items in the open block.
    Word _sumS = 0;         //!< Open block's plain checksum.
    Word _sumW = 0;         //!< Open block's position-weighted checksum.
};

/**
 * Everything a per-core backend factory needs about one core's ports.
 * Built by the loader; indices parallel the core's in/out port tables.
 */
struct BackendSpec
{
    std::vector<QueueBase *> ins;
    std::vector<QueueBase *> outs;

    /** Per-edge frame-domain scales (§5.4 lcm of the endpoints). */
    std::vector<Count> inScales;
    std::vector<Count> outScales;

    /** False bypasses protection for that input edge (source-guard
     *  ablation). */
    std::vector<bool> inGuarded;

    /** Items per protection block on each edge (frame items x scale). */
    std::vector<Count> inBlockItems;
    std::vector<Count> outBlockItems;

    /** Whole-run data items each edge carries (final partial block). */
    std::vector<Count> inTotalItems;
    std::vector<Count> outTotalItems;

    /** Executions per firing for replicating modes (>= 2). */
    int replicas = 2;
};

/**
 * Self-describing protection mode: name, provenance, and the factories
 * and loader hooks that make it runnable.
 */
struct ModeDescriptor
{
    /** Registry-assigned id (ignored on add(); set by the registry). */
    ProtectionMode mode{};

    /** Canonical name: the JSONL vocabulary and the --mode spelling. */
    std::string name;

    /** One-line description for listings. */
    std::string description;

    /** Paper / related-work provenance. */
    std::string paperRef;

    /** Additional accepted spellings for parsing (never emitted). */
    std::vector<std::string> aliases;

    /** Input-device framing this mode's consumers expect. */
    SourceFraming sourceFraming = SourceFraming::Plain;

    /**
     * Counter leaves (metrics::leafName) that count this mode's repair
     * actions. Every "repairs" figure reads them through
     * isRepairCounter() and repairTotal().
     */
    std::vector<std::string> repairLeaves;

    /** Edge-queue substrate factory. Required. */
    std::function<std::unique_ptr<QueueBase>(
        const std::string &name, std::size_t capacity,
        RecyclePool<QueueWord> *recycle)>
        makeEdgeQueue;

    /** Per-core backend factory. Required. */
    std::function<std::unique_ptr<CommBackend>(const BackendSpec &)>
        makeBackend;

    /**
     * Loader cost hook: the mode re-executes each invocation once per
     * replica, so global watchdog estimates scale with
     * LoadOptions::replicas.
     */
    bool costScalesWithReplicas = false;

    /**
     * Loader capacity hook: consumers buffer a whole protection block
     * before serving it, so edge capacity must cover two blocks (plus
     * their checksum words) or producer and consumer can ratchet into
     * permanent timeout recovery.
     */
    bool consumerBuffersBlocks = false;
};

/**
 * Process-wide mode table. The five built-ins are registered at
 * construction in id order; add() extends the table (tests, future
 * out-of-tree modes). Iteration order is registration order, which is
 * deterministic by construction.
 */
class ProtectionRegistry
{
  public:
    /** The process-wide instance (built-ins already registered). */
    static ProtectionRegistry &instance();

    /**
     * Register @p descriptor and mint its id. fatal() on an empty
     * name, a duplicate name/alias, or a missing factory — a
     * half-described mode would fail much later, inside a sweep.
     */
    ProtectionMode add(ModeDescriptor descriptor);

    /** Descriptor for @p mode; fatal() on an unregistered id. */
    const ModeDescriptor &describe(ProtectionMode mode) const;

    /** Parse a canonical name or alias; false on unknown names. */
    bool tryParse(const std::string &name, ProtectionMode *out) const;

    /** All registered modes, in registration (id) order. */
    std::vector<ProtectionMode> modes() const;

    /** All canonical names, in registration (id) order. */
    std::vector<std::string> names() const;

    /** "raw, reliable-queue, ..." for error messages and listings. */
    std::string nameList() const;

    std::size_t size() const { return _descriptors.size(); }

  private:
    ProtectionRegistry();

    // Deque: descriptors (and their name storage, which
    // protectionModeName() hands out) never move once registered.
    std::deque<ModeDescriptor> _descriptors;
};

/** Canonical name of @p mode; fatal() on an unregistered id. */
const char *protectionModeName(ProtectionMode mode);

/**
 * Parse a mode name; fatal() with the registered-name list on unknown
 * input. The one canonical parse used by EnvOptions, ExperimentConfig,
 * the exporters, and the fuzz repro bundles.
 */
ProtectionMode parseProtectionMode(const std::string &name);

/** Non-fatal parse for tools that want exit-code control. */
bool tryParseProtectionMode(const std::string &name,
                            ProtectionMode *out);

/**
 * Whether @p name counts repairs: its metrics::leafName() is in some
 * registered mode's repairLeaves.
 */
bool isRepairCounter(std::string_view name);

/**
 * Repaired items in @p snapshot: snapshot.total(leaf) summed once for
 * each distinct leaf in the registered modes' repairLeaves.
 */
Count repairTotal(const metrics::MetricSnapshot &snapshot);

} // namespace commguard::protection

#endif // COMMGUARD_SIM_PROTECTION_HH
