/**
 * @file
 * The simulated multicore system: cores, queues, backends, runtimes,
 * and the cooperative scheduler.
 *
 * Mirrors the paper's experimental platform (§6): N cores, each running
 * one streaming thread, communicating through queues. The scheduler is
 * a round-robin interleaver with per-thread slices; blocked threads are
 * revisited, and the queue-manager timeout mechanism (§5.1) plus a
 * global deadlock breaker guarantee that even catastrophically
 * corrupted configurations keep making progress — the paper's first
 * operational requirement (no crash, no hang).
 */

#ifndef COMMGUARD_MACHINE_MULTICORE_HH
#define COMMGUARD_MACHINE_MULTICORE_HH

#include <memory>
#include <vector>

#include "common/metrics.hh"
#include "common/recycle_pool.hh"
#include "common/telemetry.hh"
#include "machine/core.hh"
#include "machine/core_runtime.hh"
#include "queue/queue_base.hh"

namespace commguard
{

/** System-level configuration. */
struct MachineConfig
{
    /** Instructions per scheduling slice per thread. */
    Count sliceInstructions = 50'000;

    /** Consecutive fully-blocked slices before a QM timeout fires. */
    Count timeoutRounds = 2'000;

    /** Abort threshold on total committed instructions (safety net). */
    Count globalWatchdogInsts = 50'000'000'000ull;

    TimingConfig timing;
    PpuConfig ppu;

    /**
     * Record the frame-lifecycle event trace (docs/TRACING.md). Off by
     * default; one EventBuffer per core plus a machine track.
     */
    bool traceEvents = false;

    /** Ring capacity (events) of each trace track when enabled. */
    std::size_t traceCapacityPerTrack = 1u << 16;

    /**
     * Sample the metric registry every N scheduler rounds into the
     * run's TelemetryRecorder (docs/TELEMETRY.md). 0 disables
     * sampling. The cadence is simulated time, so the recorded series
     * is independent of host scheduling and CG_JOBS.
     */
    Count telemetrySlices = 0;

    /** Retained interval samples per run before the delta ring folds
     *  the oldest into its base (bounded memory). */
    std::size_t telemetryRingCapacity = 512;
};

/** Result of driving a system to completion. */
struct MachineRunResult
{
    bool completed = false;      //!< All threads finished.
    Count totalInstructions = 0;
    Cycle totalCycles = 0;
    Count timeoutsFired = 0;
    Count deadlockBreaks = 0;
};

/**
 * Owner of all simulated components and the scheduler.
 */
class Multicore
{
  public:
    explicit Multicore(MachineConfig config = {})
        : _config(config),
          _timeoutsFired(_metrics.counter("machine/timeoutsFired")),
          _deadlockBreaks(_metrics.counter("machine/deadlockBreaks"))
    {
        if (_config.traceEvents)
            enableEventTrace();
        if (_config.telemetrySlices > 0)
            enableTelemetry();
    }

    /**
     * Bind the freelist cores acquire their local memory from (sweep
     * hot path; not owned, must outlive the machine). Call before the
     * first addCore(); null keeps plain allocation.
     */
    void setCoreMemoryPool(RecyclePool<Word> *pool)
    {
        _coreMemoryPool = pool;
    }

    /** Create a new core (owned by the machine). */
    Core &addCore(const std::string &name);

    /** Transfer ownership of a queue to the machine. */
    QueueBase &addQueue(std::unique_ptr<QueueBase> queue);

    /** Transfer ownership of a backend to the machine. */
    CommBackend &addBackend(std::unique_ptr<CommBackend> backend);

    /** Register a runtime driving @p core through @p total_frames. */
    CoreRuntime &addRuntime(Core &core, CommBackend &backend,
                            Count total_frames);

    /** What one incremental scheduler round observed. */
    enum class RoundStatus
    {
        Running,       //!< At least one thread still has work.
        AllFinished,   //!< Every thread has finished.
        WatchdogAbort, //!< Global instruction watchdog tripped.
    };

    /**
     * Execute one scheduler round: give every unfinished thread a
     * slice, apply the QM-timeout and deadlock-break policies, sample
     * telemetry on the round cadence. The machine keeps all scheduling
     * state (round counter, per-thread blocked-round tallies) across
     * calls, so a caller may pause between rounds, reconfigure live
     * components (error injectors, programs), and resume — the service
     * driver's pause/reconfigure/resume lifecycle (docs/SERVICE.md).
     */
    RoundStatus stepRound();

    /**
     * Close out an incremental run: take the final telemetry sample
     * and assemble the run result. run() == stepRound() until not
     * Running, then finish().
     */
    MachineRunResult finish();

    /** Drive every thread to completion. */
    MachineRunResult run();

    /** Scheduler rounds executed so far (the telemetry slice clock). */
    Count schedulerRound() const { return _round; }

    /** Whether every registered runtime has finished. */
    bool allRuntimesFinished() const;

    /** Sum of committed instructions over all cores. */
    Count totalCommittedInsts() const;

    /** Sum of cycles over all cores. */
    Cycle totalCycles() const;

    /**
     * Per-run metric directory: every component registered its
     * counters here when it was added to the machine. snapshot() it
     * after run() for the run's complete observability record.
     */
    metrics::Registry &metrics() { return _metrics; }
    const metrics::Registry &metrics() const { return _metrics; }

    /**
     * Start recording the frame-lifecycle event trace: one track per
     * core (existing cores are wired retroactively; later addCore()
     * calls attach automatically) plus a machine track for scheduler
     * events. Idempotent.
     */
    void enableEventTrace();

    /**
     * The run's event trace; nullptr when tracing is off. Shared so a
     * caller can keep the trace alive past the machine's lifetime.
     */
    std::shared_ptr<trace::EventTrace> eventTrace() const
    {
        return _eventTrace;
    }

    /**
     * Start in-run metric sampling (docs/TELEMETRY.md): the scheduler
     * loop snapshots the registry every config().telemetrySlices
     * rounds into a bounded delta ring, plus one final end-of-run
     * sample. Idempotent.
     */
    void enableTelemetry();

    /**
     * The run's telemetry recorder; nullptr when sampling is off.
     * Shared so a caller can keep the series alive past the machine's
     * lifetime (same contract as eventTrace()).
     */
    std::shared_ptr<telemetry::TelemetryRecorder>
    telemetryRecorder() const
    {
        return _telemetry;
    }

    MachineConfig &config() { return _config; }
    std::vector<std::unique_ptr<Core>> &cores() { return _cores; }
    std::vector<std::unique_ptr<QueueBase>> &queues() { return _queues; }
    std::vector<std::unique_ptr<CoreRuntime>> &runtimes()
    {
        return _runtimes;
    }

  private:
    MachineConfig _config;
    metrics::Registry _metrics;
    RecyclePool<Word> *_coreMemoryPool = nullptr;  //!< Not owned.

    // Scheduler-level counters (owned by the registry).
    metrics::Counter &_timeoutsFired;
    metrics::Counter &_deadlockBreaks;

    std::vector<std::unique_ptr<Core>> _cores;
    std::vector<std::unique_ptr<QueueBase>> _queues;
    std::vector<std::unique_ptr<CommBackend>> _backends;
    std::vector<std::unique_ptr<CoreRuntime>> _runtimes;

    // Incremental-scheduler state (stepRound()): the round counter
    // doubles as the telemetry slice clock, so it must survive pauses.
    Count _round = 0;
    std::vector<Count> _blockedRounds;

    // Event tracing (null when off). The tracers are the per-core
    // TraceSink adapters; _machineTrack records scheduler events.
    std::shared_ptr<trace::EventTrace> _eventTrace;
    trace::EventBuffer *_machineTrack = nullptr;
    std::vector<std::unique_ptr<EventTracer>> _tracers;

    // In-run metric sampling (null when off).
    std::shared_ptr<telemetry::TelemetryRecorder> _telemetry;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_MULTICORE_HH
