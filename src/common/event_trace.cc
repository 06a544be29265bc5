#include "common/event_trace.hh"

namespace commguard::trace
{

const char *
eventKindName(EventKind kind)
{
    switch (kind) {
      case EventKind::InvocationStart: return "invocationStart";
      case EventKind::ErrorInjected: return "errorInjected";
      case EventKind::QueuePush: return "queuePush";
      case EventKind::QueuePop: return "queuePop";
      case EventKind::QueueBlock: return "queueBlock";
      case EventKind::QueueUnblock: return "queueUnblock";
      case EventKind::QueueCorrupt: return "queueCorrupt";
      case EventKind::QueueDepth: return "queueDepth";
      case EventKind::PopTimeout: return "popTimeout";
      case EventKind::PushTimeout: return "pushTimeout";
      case EventKind::QmTimeout: return "qmTimeout";
      case EventKind::DeadlockBreak: return "deadlockBreak";
      case EventKind::WatchdogTrip: return "watchdogTrip";
      case EventKind::HeaderInsert: return "headerInsert";
      case EventKind::HeaderDropped: return "headerDropped";
      case EventKind::AmTransition: return "amTransition";
      case EventKind::AmPad: return "amPad";
      case EventKind::AmDiscardItem: return "amDiscardItem";
      case EventKind::AmDiscardHeader: return "amDiscardHeader";
      default: return "???";
    }
}

bool
isForensicEvent(EventKind kind, std::uint16_t packed_states)
{
    switch (kind) {
      case EventKind::ErrorInjected:
      case EventKind::QueueCorrupt:
      case EventKind::PopTimeout:
      case EventKind::PushTimeout:
      case EventKind::QmTimeout:
      case EventKind::DeadlockBreak:
      case EventKind::WatchdogTrip:
      case EventKind::HeaderDropped:
      case EventKind::AmPad:
      case EventKind::AmDiscardItem:
      case EventKind::AmDiscardHeader:
        return true;
      case EventKind::AmTransition: {
        // Repair-state transitions are forensic; the per-frame
        // RcvCmp <-> ExpHdr bookkeeping is bulk. States >= DiscFr (2)
        // are the repair states (DiscFr, Disc, Pdg).
        const auto from = static_cast<std::uint8_t>(packed_states >> 8);
        const auto to = static_cast<std::uint8_t>(packed_states & 0xff);
        return from >= 2 || to >= 2;
      }
      default:
        return false;
    }
}

std::vector<Event>
EventBuffer::events() const
{
    std::vector<Event> out;
    out.reserve(_bulk.events.size() + _forensic.events.size());
    forEachEvent([&](const Event &event) { out.push_back(event); });
    return out;
}

Count
EventTrace::count(EventKind kind) const
{
    Count sum = 0;
    for (const EventBuffer &track : _tracks)
        sum += track.count(kind);
    return sum;
}

Count
EventTrace::recorded() const
{
    Count sum = 0;
    for (const EventBuffer &track : _tracks)
        sum += track.recorded();
    return sum;
}

Count
EventTrace::dropped() const
{
    Count sum = 0;
    for (const EventBuffer &track : _tracks)
        sum += track.dropped();
    return sum;
}

} // namespace commguard::trace
