/**
 * @file
 * Service mode: a long-lived streaming driver over one live machine
 * (docs/SERVICE.md).
 *
 * Every other workload in the repo is a batch sweep — build a machine,
 * pre-fill the whole input stream, run to completion, tear down. The
 * paper's setting is a *service*: a streaming pipeline that keeps
 * meeting its real-time contract under errors, indefinitely. The
 * ServiceDriver models that: it keeps one Multicore alive and pushes an
 * open-loop traffic model through it — seeded bursty frame arrivals in
 * virtual slices, admission-controlled backlog, per-core MTBE
 * heterogeneity, and scheduled mid-run events (core MTBE degradation,
 * live graph remap across physical slots) — while exporting periodic
 * live snapshots: the nonzero differences of the run's metric registry
 * since the previous snapshot, plus the interval's injected errors and
 * repairs counted with the batch definitions
 * (MetricSnapshot::total("errorsInjected"), protection::repairTotal()).
 *
 * Determinism contract: the driver runs in virtual time only (machine
 * scheduler rounds). The arrival schedule, the event schedule, the
 * admission decisions and every exported byte are pure functions of the
 * configuration and its seeds — the same config produces a bitwise
 * identical JSONL stream and end-of-run summary on every invocation,
 * independent of wall clock and CG_JOBS.
 */

#ifndef COMMGUARD_SIM_SERVICE_DRIVER_HH
#define COMMGUARD_SIM_SERVICE_DRIVER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/json.hh"
#include "sim/schema_check.hh"
#include "streamit/loader.hh"

namespace commguard::sim
{

/**
 * Version of the service JSONL record schema (checkServiceStream()).
 * Bump on any breaking change to the meta/event/snapshot/summary record
 * layout.
 *
 * v2: snapshots carry typed errors_injected/repairs interval counts;
 * the rolling forensics window (snapshot "forensics", summary
 * "forensics_recorded"/"forensics_dropped") and the telemetry ring
 * (meta "telemetry_slices"/"forensics_window", snapshot "ring") are
 * gone.
 */
constexpr int kServiceSchemaVersion = 2;

/** One scheduled mid-run event, fired when admitted frames reach a
 *  threshold. */
struct ServiceEvent
{
    enum class Kind
    {
        MtbeDegrade, //!< A physical slot's error rate worsens.
        Remap,       //!< Rotate the node→slot placement (live remap).
    };

    Kind kind = Kind::MtbeDegrade;

    /** Fires once admitted frames reach this count. */
    Count atFrame = 0;

    /** MtbeDegrade: physical slot whose MTBE is divided by factor. */
    int core = 0;

    /** MtbeDegrade: degradation factor (> 1 worsens the slot). */
    double factor = 8.0;

    /** Remap: how many slots the node→slot rotation advances. */
    int rotation = 1;
};

/** Service-mode configuration. */
struct ServiceConfig
{
    /** The streaming application (not owned; must outlive the run). */
    const apps::App *app = nullptr;

    /**
     * Protection / machine / error configuration. Service mode
     * requires the uniform frame domain (frameScale == 1, no per-node
     * scales) and a streaming collector (frameAlignedOutput == false);
     * perCoreMtbe seeds the heterogeneous slot MTBE table.
     */
    streamit::LoadOptions load;

    /** Total frames pushed through the machine. */
    Count totalFrames = 100'000;

    /** Seed of the arrival process (independent of the error seed). */
    std::uint64_t arrivalSeed = 1;

    /**
     * Bursty open-loop arrivals: bursts average meanBurstFrames frames
     * (with deterministic 4x spikes roughly every 8th burst), spaced
     * an average of meanGapSlices virtual slices apart. Integer
     * arithmetic only, so the schedule is bit-stable across platforms.
     */
    Count meanBurstFrames = 32;
    Count meanGapSlices = 8;

    /**
     * Admission control: at most this many frames in flight
     * (admitted but not yet fully drained). Bounds source-backlog
     * memory; arrivals beyond it are clamped (ingress backpressure).
     */
    Count maxBacklogFrames = 4096;

    /** Emit a snapshot record every N fully-drained frames. */
    Count snapshotEveryFrames = 10'000;

    /** Mid-run events, fired in atFrame order. */
    std::vector<ServiceEvent> events;
};

/** End-of-run result. summary/jsonl are the deterministic artifacts. */
struct ServiceOutcome
{
    bool completed = false;   //!< All frames drained, no abort.
    Count framesAdmitted = 0;
    Count framesCompleted = 0; //!< Fully drained through every node.
    Count bursts = 0;
    Count virtualSlices = 0;  //!< Virtual clock at end of run.
    Count machineRounds = 0;  //!< Scheduler rounds actually executed.
    Count outputItems = 0;
    std::uint64_t outputChecksum = 0; //!< FNV-1a over output words.
    Count totalInstructions = 0;
    Cycle totalCycles = 0;
    Count timeoutsFired = 0;
    Count deadlockBreaks = 0;
    Count errorsInjected = 0;
    Count repairs = 0;
    Count sourceUnderflows = 0;
    Count snapshots = 0;
    Count eventsApplied = 0;

    /** Peak source backlog in words (bounded-memory witness). */
    std::size_t maxBacklogWords = 0;

    /** The end-of-run summary record (also the last JSONL line). */
    Json summary;

    /** The full schema-versioned JSONL stream (meta, events,
     *  snapshots, summary — one record per line). */
    std::string jsonl;
};

/**
 * The long-lived streaming driver. Construct with a validated config,
 * call run() once. Validation failures exit via fatal() (service
 * configs are operator input, not library API).
 */
class ServiceDriver
{
  public:
    explicit ServiceDriver(ServiceConfig config);

    /** Drive the whole traffic schedule through the machine. */
    ServiceOutcome run();

  private:
    ServiceConfig _config;
};

/**
 * Check a service stream's text: the meta record first, consecutive
 * snapshots whose errors_injected/repairs equal their deltas summed by
 * leaf, and one summary, last, that reconciles with the stream.
 */
SchemaErrors checkServiceStream(const std::string &text);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_SERVICE_DRIVER_HH
