/**
 * @file
 * CommGuard alignment manager (AM): the 5-state checker FSM of Table 1.
 *
 * One AM instance guards one incoming queue of a consumer core. It
 * receives two kinds of events: the local thread starting a new frame
 * computation, and the local thread issuing a pop. Using the frame IDs
 * in received headers and the thread's active-fc counter it detects
 * misalignment and repairs it by discarding queued words (communication
 * realignment) or padding pop responses with zeroes (computation
 * realignment), converting catastrophic alignment errors into tolerable
 * data errors (paper §4.2).
 */

#ifndef COMMGUARD_COMMGUARD_ALIGNMENT_MANAGER_HH
#define COMMGUARD_COMMGUARD_ALIGNMENT_MANAGER_HH

#include "commguard/counters.hh"
#include "commguard/queue_manager.hh"

namespace commguard
{

/** Alignment manager FSM states (paper Table 1). */
enum class AmState : std::uint8_t
{
    RcvCmp,   //!< Receiving/computing items of the active frame.
    ExpHdr,   //!< New frame computation started; expecting a header.
    DiscFr,   //!< Discarding frames from the queue (AE-FE).
    Disc,     //!< Discarding items and frames (AE-IE, AE-FE).
    Pdg,      //!< Padding the thread for lost data (AE-IL, AE-FL).
};

/** Printable state name. */
const char *amStateName(AmState state);

/** Outcome of one pop request processed by the AM. */
struct AmPopResult
{
    enum class Kind : std::uint8_t
    {
        Item,     //!< A real data item was delivered.
        Pad,      //!< The AM padded the response (value is 0).
        Blocked,  //!< The underlying queue is empty; retry later.
    };

    Kind kind;
    Word value;
};

/**
 * Alignment checker for one incoming queue.
 */
class AlignmentManager
{
  public:
    /** @param counters Per-core CommGuard suboperation accounting. */
    explicit AlignmentManager(CgCounters &counters)
        : _counters(counters)
    {}

    /**
     * Event: local thread rolled over to a new frame computation whose
     * frame ID is @p active_fc.
     */
    void onNewFrameComputation(FrameId active_fc);

    /**
     * Event: local thread issued a pop on this queue. May consume
     * several queued words (discarding) before resolving. Re-entrant:
     * if the queue drains mid-discard the call returns Blocked and a
     * later retry resumes from the persisted FSM state. Defined below,
     * in the header, so the backend's pop path inlines it.
     */
    AmPopResult onPop(QueueManager &qm, FrameId active_fc);

    AmState state() const { return _state; }

    /** Future header being waited for while padding (valid in Pdg). */
    FrameId pendingHeader() const { return _pendingHeader; }

  private:
    /** Header classification relative to the local active-fc. */
    enum class HeaderKind { Past, Correct, Future };

    static HeaderKind
    classify(FrameId id, FrameId active_fc)
    {
        // The end-of-computation marker compares as an infinitely-future
        // frame: the producer is done, so the consumer pads out its
        // remaining frame computations.
        if (id == endOfComputationId || id > active_fc)
            return HeaderKind::Future;
        if (id == active_fc)
            return HeaderKind::Correct;
        return HeaderKind::Past;
    }

    /** Count one FSM-check/update suboperation (Table 3). */
    void fsmOp() { ++_counters.fsmOps; }

    AmState _state = AmState::RcvCmp;
    FrameId _pendingHeader = 0;
    CgCounters &_counters;
};

inline AmPopResult
AlignmentManager::onPop(QueueManager &qm, FrameId active_fc)
{
    // Each iteration consumes at most one queued word; the loop ends by
    // delivering an item, delivering padding, or blocking on an empty
    // queue (Table 2: "while FSM not DONE").
    while (true) {
        fsmOp();

        // Stage profiling: one occupancy tick per FSM evaluation,
        // bucketed by the state the FSM was in when the pop arrived.
        _counters.amStateOccupancy.add(static_cast<std::size_t>(_state));

        if (_state == AmState::Pdg) {
            // Table 2: "if FSM-check not Pdg do ..." -- in Pdg the pop
            // request is answered with a 0 without touching the queue.
            ++_counters.paddedItems;
            return {AmPopResult::Kind::Pad, 0};
        }

        QueueWord word;
        if (qm.pop(word) == QueueOpStatus::Blocked)
            return {AmPopResult::Kind::Blocked, 0};

        if (!word.isHeader) {
            switch (_state) {
              case AmState::RcvCmp:
                // Normal delivery.
                ++_counters.acceptedItems;
                return {AmPopResult::Kind::Item, word.value};
              case AmState::ExpHdr:
                // Table 1: ExpHdr, "Received item or past header" ->
                // DiscFr. The offending item is discarded.
                _state = AmState::DiscFr;
                ++_counters.discardedItems;
                continue;
              case AmState::DiscFr:
              case AmState::Disc:
                ++_counters.discardedItems;
                continue;
              default:
                continue;
            }
        }

        // A header: ECC-check and compare with the frame progress.
        const FrameId id = qm.checkHeader(word);
        const HeaderKind kind = classify(id, active_fc);

        switch (_state) {
          case AmState::RcvCmp:
            if (kind == HeaderKind::Future) {
                // Table 1: RcvCmp, "Received future header" -> Pdg.
                _pendingHeader = id;
                _state = AmState::Pdg;
            } else {
                // Table 1: RcvCmp, "Received past header" -> Disc.
                // (A duplicate header of the current frame is treated
                // the same way; it cannot arise from reliable HIs.)
                _state = AmState::Disc;
                ++_counters.discardedHeaders;
            }
            continue;

          case AmState::ExpHdr:
            if (kind == HeaderKind::Correct) {
                // Table 1: ExpHdr, "Received correct header" -> RcvCmp.
                _state = AmState::RcvCmp;
            } else if (kind == HeaderKind::Future) {
                // Table 1: ExpHdr, "Received future header" -> Pdg.
                _pendingHeader = id;
                _state = AmState::Pdg;
            } else {
                // Table 1: ExpHdr, "Received ... past header" -> DiscFr.
                _state = AmState::DiscFr;
                ++_counters.discardedHeaders;
            }
            continue;

          case AmState::DiscFr:
            if (kind == HeaderKind::Correct) {
                // Table 1: DiscFr, "Received correct header" -> RcvCmp.
                _state = AmState::RcvCmp;
            } else if (kind == HeaderKind::Future) {
                // Table 1: DiscFr, "Received future header" -> Pdg.
                _pendingHeader = id;
                _state = AmState::Pdg;
            } else {
                ++_counters.discardedHeaders;
            }
            continue;

          case AmState::Disc:
            if (kind == HeaderKind::Future) {
                // Table 1: Disc, "Received future header" -> Pdg.
                _pendingHeader = id;
                _state = AmState::Pdg;
            } else {
                // Past and current headers are discarded with their
                // frames; Disc resolves only on a future header.
                ++_counters.discardedHeaders;
            }
            continue;

          default:
            continue;
        }
    }
}

} // namespace commguard

#endif // COMMGUARD_COMMGUARD_ALIGNMENT_MANAGER_HH
