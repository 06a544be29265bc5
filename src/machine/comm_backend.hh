/**
 * @file
 * Interface between a core and its communication substrate.
 *
 * The core's ISA-visible PUSH/POP operations and the reliable runtime's
 * frame-computation events are routed through a per-core CommBackend.
 * Implementations model protection configurations: RawBackend (direct
 * queue access, Figs. 3b/3c), CommGuardBackend (HI + AM + QM,
 * Fig. 3d), ReplicateBackend (N-modular firing replication with output
 * voting), and AbftBackend (checksum-augmented streams). The registry
 * in sim/protection.hh maps mode names to backend factories.
 */

#ifndef COMMGUARD_MACHINE_COMM_BACKEND_HH
#define COMMGUARD_MACHINE_COMM_BACKEND_HH

#include <string>

#include "common/metrics.hh"
#include "common/types.hh"
#include "queue/queue_base.hh"

namespace commguard
{

class Core;

/** Outcome of a pop routed through a backend. */
struct BackendPopResult
{
    bool blocked = false;
    Word value = 0;
};

/** Backend verdict when an invocation's work program completes. */
enum class InvocationVerdict
{
    Commit,   //!< Frame computation done; advance to the next frame.
    Replay,   //!< Re-execute the same invocation (replication).
    Blocked,  //!< Commit stalled on a queue; retry invocationDone().
};

/**
 * Per-core communication endpoint.
 */
class CommBackend
{
  public:
    virtual ~CommBackend() = default;

    /**
     * Attach the owning core (used for charging costs and exposure).
     * Overrides must call the base: backends that need core services
     * beyond cost charging (store journaling for replication rollback)
     * enable them here.
     */
    virtual void bindCore(Core *core) { _core = core; }

    /** Core-issued push on a filter-local output port. */
    virtual QueueOpStatus push(int port, Word value) = 0;

    /** Core-issued pop on a filter-local input port. */
    virtual BackendPopResult pop(int port) = 0;

    /**
     * Reliable-runtime event: a new frame computation is starting.
     * Idempotent under retries: a Blocked result (header insertion
     * stalled on a full queue) must be retried with no re-counting.
     */
    virtual QueueOpStatus newFrameComputation() = 0;

    /** Reliable-runtime event: the thread finished its last frame. */
    virtual QueueOpStatus endOfComputation() = 0;

    /**
     * Reliable-runtime event: the work program of the current
     * invocation completed (Halt or watchdog). The backend may demand
     * a replay (replication), report a stalled commit (buffered output
     * flushing into a full queue; the runtime retries), or commit.
     * Must be resumable across Blocked retries.
     */
    virtual InvocationVerdict
    invocationDone()
    {
        return InvocationVerdict::Commit;
    }

    /**
     * Timeout recovery for a pop blocked too long (paper §5.1: "the QM
     * needs timeout mechanisms to avoid indefinite blocking"). Returns
     * the value to deliver in place of the stuck pop.
     */
    virtual Word
    timeoutPop(int port)
    {
        (void)port;
        return 0;
    }

    /** Timeout recovery for a push blocked too long: drop the item. */
    virtual void
    timeoutPush(int port)
    {
        (void)port;
    }

    /** Timeout recovery for a stalled frame event (header insertion). */
    virtual void timeoutFrameEvent() {}

    /**
     * True when frame computation boundaries serialize the pipeline
     * (CommGuard's header/active-fc dependency, §5.3); the runtime then
     * charges the flush penalty at every frame start.
     */
    virtual bool serializesFrames() const { return false; }

    /** Register backend counters with the machine's metric registry. */
    virtual void
    linkMetrics(metrics::Registry &registry, const std::string &prefix)
    {
        (void)registry;
        (void)prefix;
    }

  protected:
    Core *_core = nullptr;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_COMM_BACKEND_HH
