/**
 * @file
 * Frame-lifecycle event tracing: fixed-capacity per-track binary event
 * buffers recording timestamped simulator events.
 *
 * The trace answers the question the aggregate metric counters cannot:
 * *when* did each error land, what did the Alignment Manager do about
 * it, and how long did realignment take. One EventTrace exists per run
 * (off by default, enabled via MachineConfig::traceEvents or the
 * CG_TRACE_EVENTS knob); it owns one EventBuffer track per core plus a
 * machine-level track for scheduler events.
 *
 * Counting contract: every track keeps an always-incremented per-kind
 * event count even when the bounded ring has to drop (overwrite) the
 * oldest event records. Event *counts* therefore stay exact for any
 * run length and can be cross-checked 1:1 against the metric-registry
 * counters (conservation, sim/trace_export.hh), while event *records*
 * are best-effort within the configured capacity.
 *
 * Retention is two-tier: rare *forensic* events (injected errors,
 * repairs, timeouts, repair-state AM transitions) live in their own
 * ring per track so the bulk queue-traffic events (pushes, pops,
 * depth samples, per-frame FSM chatter) can never evict them. A long
 * run keeps a sliding window of the bulk traffic but the complete
 * error/repair history, which is what the realignment forensics pass
 * joins over.
 *
 * Layering: this file must stay free of machine/queue dependencies, so
 * queues are registered by opaque handle and AM states travel as raw
 * std::uint8_t codes.
 */

#ifndef COMMGUARD_COMMON_EVENT_TRACE_HH
#define COMMGUARD_COMMON_EVENT_TRACE_HH

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "common/types.hh"

namespace commguard::trace
{

/** Everything the tracer can record (one counter slot each). */
enum class EventKind : std::uint8_t
{
    InvocationStart,  //!< A frame-computation invocation began.
    ErrorInjected,    //!< A register bit flip (a = reg, b = bit).
    QueuePush,        //!< A push committed (a = port).
    QueuePop,         //!< A pop committed (a = port).
    QueueBlock,       //!< A queue op first blocked (a = port, b = pop).
    QueueUnblock,     //!< A blocked queue op resumed (a = port).
    QueueCorrupt,     //!< Software-queue state corrupted (b = queue).
    QueueDepth,       //!< Queue depth sample (b = queue, value = depth).
    PopTimeout,       //!< QM timeout resolved a blocked pop (a = port).
    PushTimeout,      //!< QM timeout resolved a blocked push (a = port).
    QmTimeout,        //!< Scheduler fired a QM timeout (machine track).
    DeadlockBreak,    //!< Scheduler broke a system-wide deadlock.
    WatchdogTrip,     //!< PPU scope watchdog fired (a = nested).
    HeaderInsert,     //!< HI stored a header (b = queue, value = frame).
    HeaderDropped,    //!< HI gave up on a blocked header (a = port).
    AmTransition,     //!< AM FSM moved (b = from<<8|to, value = info).
    AmPad,            //!< AM padded a pop response (a = port).
    AmDiscardItem,    //!< AM discarded a queued item (a = port).
    AmDiscardHeader,  //!< AM discarded a queued header (a = port).
};

/** Number of EventKind values (array sizing). */
inline constexpr std::size_t numEventKinds = 19;

/** Stable lower-camel name used by the exporters and checkers. */
const char *eventKindName(EventKind kind);

/**
 * Should an event go to the protected forensic ring? Rare lifecycle
 * events always do; AmTransition qualifies only when it enters or
 * leaves a repair state (packed_states = from<<8 | to), so the
 * per-frame RcvCmp/ExpHdr bookkeeping chatter stays in the bulk ring.
 */
bool isForensicEvent(EventKind kind, std::uint16_t packed_states);

/** One recorded event (32 bytes). */
struct Event
{
    Count seq;        //!< Global record order across all tracks.
    Cycle time;       //!< Emitting core's cycle clock (0 on machine).
    Count slice;      //!< Scheduler round when recorded.
    EventKind kind;
    std::uint8_t a;   //!< Port / register / nested-flag (see kinds).
    std::uint16_t b;  //!< Queue id / bit / packed AM states.
    Word value;       //!< Frame id / depth / payload word.
};

/**
 * One fixed-capacity event track (a core's or the machine's). Two
 * rings: bulk traffic and forensic events (isForensicEvent), each of
 * the configured capacity; when one is full, recording overwrites its
 * own oldest event. Per-kind counts and the drop count keep exact
 * totals regardless of what was overwritten.
 */
class EventBuffer
{
  public:
    EventBuffer(std::string name, std::size_t capacity)
        : _name(std::move(name)),
          _capacity(capacity == 0 ? 1 : capacity),
          _bulk(_capacity), _forensic(_capacity)
    {}

    void
    record(const Event &event)
    {
        ++_recorded;
        ++_counts[static_cast<std::size_t>(event.kind)];
        Ring &ring =
            isForensicEvent(event.kind, event.b) ? _forensic : _bulk;
        ring.record(event, _capacity);
    }

    /** Retained events in chronological (seq) order (both rings). */
    std::vector<Event> events() const;

    /**
     * Call @p visit on each retained event in chronological (seq)
     * order, merging the two rings in place: events() without its
     * copies, for exporters that read every event once.
     */
    template <typename Visit>
    void
    forEachEvent(Visit &&visit) const
    {
        RingCursor bulk(_bulk, _capacity);
        RingCursor forensic(_forensic, _capacity);
        // One call site, so the compiler inlines the visitor.
        while (!bulk.done() || !forensic.done()) {
            const bool from_bulk =
                forensic.done() ||
                (!bulk.done() && bulk.peek().seq < forensic.peek().seq);
            visit((from_bulk ? bulk : forensic).take());
        }
    }

    const std::string &name() const { return _name; }
    std::size_t capacity() const { return _capacity; }

    /** Events ever recorded (retained + dropped). */
    Count recorded() const { return _recorded; }

    /** Events overwritten by ring wrap-around. */
    Count
    dropped() const
    {
        return _recorded -
               static_cast<Count>(_bulk.events.size() +
                                  _forensic.events.size());
    }

    /** Exact per-kind count, including dropped events. */
    Count
    count(EventKind kind) const
    {
        return _counts[static_cast<std::size_t>(kind)];
    }

  private:
    struct Ring
    {
        explicit Ring(std::size_t capacity)
        {
            events.reserve(capacity);
        }

        void
        record(const Event &event, std::size_t capacity)
        {
            if (events.size() < capacity) {
                events.push_back(event);
                return;
            }
            events[next] = event;
            next = (next + 1) % capacity;
        }

        std::vector<Event> events;
        std::size_t next = 0;  //!< Oldest slot once full.
    };

    /** Walks one ring from its oldest retained event to its newest. */
    class RingCursor
    {
      public:
        RingCursor(const Ring &ring, std::size_t capacity)
            : _events(ring.events),
              _slot(ring.events.size() < capacity ? 0 : ring.next),
              _left(ring.events.size())
        {}

        bool done() const { return _left == 0; }
        const Event &peek() const { return _events[_slot]; }

        const Event &
        take()
        {
            const Event &event = _events[_slot];
            if (++_slot == _events.size())
                _slot = 0;
            --_left;
            return event;
        }

      private:
        const std::vector<Event> &_events;
        std::size_t _slot;
        std::size_t _left;
    };

    std::string _name;
    std::size_t _capacity;
    Ring _bulk;
    Ring _forensic;
    Count _recorded = 0;
    std::array<Count, numEventKinds> _counts{};
};

/**
 * The per-run event trace: a set of named tracks sharing one global
 * sequence counter (per-core cycle clocks are not comparable across
 * cores, so cross-track ordering and the forensics join use seq) and
 * the current scheduler-slice number. Single-threaded by design — each
 * run owns its trace and runs on one worker thread.
 */
class EventTrace
{
  public:
    /** @param track_capacity Ring capacity of each added track. */
    explicit EventTrace(std::size_t track_capacity = 1u << 16)
        : _trackCapacity(track_capacity)
    {}

    /** Add a track; the returned reference stays valid forever. */
    EventBuffer &
    addTrack(const std::string &name)
    {
        _tracks.emplace_back(name, _trackCapacity);
        return _tracks.back();
    }

    std::size_t numTracks() const { return _tracks.size(); }
    const EventBuffer &track(std::size_t i) const { return _tracks[i]; }

    /**
     * Register a queue under an opaque handle (its object address) and
     * return its stable small id for Event::b fields.
     */
    std::uint16_t
    registerQueue(const void *handle, const std::string &name)
    {
        _queueHandles.push_back(handle);
        _queueNames.push_back(name);
        return static_cast<std::uint16_t>(_queueHandles.size() - 1);
    }

    /** Id of a registered queue; unknownQueue when never registered. */
    std::uint16_t
    queueId(const void *handle) const
    {
        for (std::size_t i = 0; i < _queueHandles.size(); ++i)
            if (_queueHandles[i] == handle)
                return static_cast<std::uint16_t>(i);
        return unknownQueue;
    }

    static constexpr std::uint16_t unknownQueue = 0xffff;

    const std::vector<std::string> &queueNames() const
    {
        return _queueNames;
    }

    /** Scheduler round bookkeeping (stamped into every event). */
    void beginSlice(Count n) { _slice = n; }
    Count slice() const { return _slice; }

    /** Record one event on @p track, stamping seq and slice. */
    void
    record(EventBuffer &track, Cycle time, EventKind kind,
           std::uint8_t a = 0, std::uint16_t b = 0, Word value = 0)
    {
        track.record(Event{_nextSeq++, time, _slice, kind, a, b, value});
    }

    // ------------------------------------------------------------------
    // Aggregates over all tracks.
    // ------------------------------------------------------------------

    Count count(EventKind kind) const;
    Count recorded() const;
    Count dropped() const;

  private:
    std::size_t _trackCapacity;
    Count _nextSeq = 0;
    Count _slice = 0;

    // deque: addTrack() must not invalidate earlier references.
    std::deque<EventBuffer> _tracks;
    std::vector<const void *> _queueHandles;
    std::vector<std::string> _queueNames;
};

} // namespace commguard::trace

#endif // COMMGUARD_COMMON_EVENT_TRACE_HH
