/**
 * @file
 * Execution tracing hooks for debugging and observing simulated
 * programs.
 *
 * A TraceSink observes a core's invocation boundaries, queue activity,
 * CommGuard frame-lifecycle actions, watchdog trips and injected
 * errors. Tracing is off by default and costs one pointer test per
 * observed event. Attaching a sink never changes how the interpreter
 * retires instructions: every hook fires at a point where the core has
 * already published its state (DESIGN.md §6b).
 *
 * This is the single dispatch point for every observer: the binary
 * EventTracer (CG_TRACE_EVENTS) and any test double implement
 * TraceSink, and a core holds at most one sink. For instruction-level
 * inspection, `fault_playground --disasm` prints a program's listing.
 */

#ifndef COMMGUARD_MACHINE_TRACE_HH
#define COMMGUARD_MACHINE_TRACE_HH

#include <cstdint>

#include "common/event_trace.hh"
#include "common/types.hh"
#include "isa/inst.hh"

namespace commguard
{

class Core;
class QueueBase;

/**
 * Observer interface for core execution events. Every hook has an
 * empty default so sinks override only what they need.
 */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** A new frame-computation invocation began. */
    virtual void
    onInvocationStart(const Core &core)
    {
        (void)core;
    }

    /** The injector flipped @p bit of @p reg. */
    virtual void
    onErrorInjected(const Core &core, isa::Reg reg, int bit)
    {
        (void)core;
        (void)reg;
        (void)bit;
    }

    // ------------------------------------------------------------------
    // Queue activity (emitted by the core's interpreter).
    // ------------------------------------------------------------------

    /** A push on output @p port committed. */
    virtual void
    onQueuePush(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /** A pop on input @p port committed. */
    virtual void
    onQueuePop(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /** A queue op on @p port blocked (first blocked attempt only). */
    virtual void
    onQueueBlock(const Core &core, int port, bool is_pop)
    {
        (void)core;
        (void)port;
        (void)is_pop;
    }

    /** The blocked op on @p port resumed (success or timeout). */
    virtual void
    onQueueUnblock(const Core &core, int port, bool is_pop)
    {
        (void)core;
        (void)port;
        (void)is_pop;
    }

    /** A software-queue routine's state was corrupted (QME). */
    virtual void
    onQueueCorrupt(const Core &core, const QueueBase &queue)
    {
        (void)core;
        (void)queue;
    }

    /** Post-operation depth sample of @p queue. */
    virtual void
    onQueueDepth(const Core &core, const QueueBase &queue,
                 std::size_t depth)
    {
        (void)core;
        (void)queue;
        (void)depth;
    }

    /** A QM timeout force-resolved the blocked pop on @p port. */
    virtual void
    onPopTimeout(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /** A QM timeout force-resolved the blocked push on @p port. */
    virtual void
    onPushTimeout(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /** The PPU watchdog force-completed a scope (@p nested level). */
    virtual void
    onWatchdogTrip(const Core &core, bool nested)
    {
        (void)core;
        (void)nested;
    }

    // ------------------------------------------------------------------
    // CommGuard frame lifecycle (emitted by the backend).
    // ------------------------------------------------------------------

    /** The HI stored frame header @p frame into @p queue. */
    virtual void
    onHeaderInsert(const Core &core, int port, const QueueBase &queue,
                   FrameId frame)
    {
        (void)core;
        (void)port;
        (void)queue;
        (void)frame;
    }

    /** The HI gave up on a blocked header insertion (QM timeout). */
    virtual void
    onHeaderDropped(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /**
     * The AM for input @p port moved @p from -> @p to (AmState codes).
     * Intermediate states inside one AM evaluation are compressed to
     * the before/after pair. @p info is the frame id driving the move
     * (the pending header when entering the padding state).
     */
    virtual void
    onAmTransition(const Core &core, int port, std::uint8_t from,
                   std::uint8_t to, Word info)
    {
        (void)core;
        (void)port;
        (void)from;
        (void)to;
        (void)info;
    }

    /** The AM padded one pop response on @p port. */
    virtual void
    onAmPad(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /** The AM discarded one queued item on @p port. */
    virtual void
    onAmDiscardItem(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }

    /** The AM discarded one queued header on @p port. */
    virtual void
    onAmDiscardHeader(const Core &core, int port)
    {
        (void)core;
        (void)port;
    }
};

/**
 * Binary event tracer: renders every hook into one trace::EventTrace
 * track. Timestamps are the observed core's cycle clock; the shared
 * seq stamp provides cross-track order.
 */
class EventTracer : public TraceSink
{
  public:
    EventTracer(trace::EventTrace &trace, trace::EventBuffer &track)
        : _trace(trace), _track(track)
    {}

    void onInvocationStart(const Core &core) override;
    void onErrorInjected(const Core &core, isa::Reg reg,
                         int bit) override;
    void onQueuePush(const Core &core, int port) override;
    void onQueuePop(const Core &core, int port) override;
    void onQueueBlock(const Core &core, int port, bool is_pop) override;
    void onQueueUnblock(const Core &core, int port,
                        bool is_pop) override;
    void onQueueCorrupt(const Core &core,
                        const QueueBase &queue) override;
    void onQueueDepth(const Core &core, const QueueBase &queue,
                      std::size_t depth) override;
    void onPopTimeout(const Core &core, int port) override;
    void onPushTimeout(const Core &core, int port) override;
    void onWatchdogTrip(const Core &core, bool nested) override;
    void onHeaderInsert(const Core &core, int port,
                        const QueueBase &queue, FrameId frame) override;
    void onHeaderDropped(const Core &core, int port) override;
    void onAmTransition(const Core &core, int port, std::uint8_t from,
                        std::uint8_t to, Word info) override;
    void onAmPad(const Core &core, int port) override;
    void onAmDiscardItem(const Core &core, int port) override;
    void onAmDiscardHeader(const Core &core, int port) override;

  private:
    trace::EventTrace &_trace;
    trace::EventBuffer &_track;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_TRACE_HH
