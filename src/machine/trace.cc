#include "machine/trace.hh"

#include "machine/core.hh"
#include "queue/queue_base.hh"

namespace commguard
{

using trace::EventKind;

void
EventTracer::onInvocationStart(const Core &core)
{
    _trace.record(_track, core.cycles(), EventKind::InvocationStart, 0,
                  0,
                  static_cast<Word>(core.counters().invocations));
}

void
EventTracer::onErrorInjected(const Core &core, isa::Reg reg, int bit)
{
    _trace.record(_track, core.cycles(), EventKind::ErrorInjected,
                  static_cast<std::uint8_t>(reg),
                  static_cast<std::uint16_t>(bit));
}

void
EventTracer::onQueuePush(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::QueuePush,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onQueuePop(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::QueuePop,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onQueueBlock(const Core &core, int port, bool is_pop)
{
    _trace.record(_track, core.cycles(), EventKind::QueueBlock,
                  static_cast<std::uint8_t>(port), is_pop ? 1 : 0);
}

void
EventTracer::onQueueUnblock(const Core &core, int port, bool is_pop)
{
    _trace.record(_track, core.cycles(), EventKind::QueueUnblock,
                  static_cast<std::uint8_t>(port), is_pop ? 1 : 0);
}

void
EventTracer::onQueueCorrupt(const Core &core, const QueueBase &queue)
{
    _trace.record(_track, core.cycles(), EventKind::QueueCorrupt, 0,
                  _trace.queueId(&queue));
}

void
EventTracer::onQueueDepth(const Core &core, const QueueBase &queue,
                          std::size_t depth)
{
    _trace.record(_track, core.cycles(), EventKind::QueueDepth, 0,
                  _trace.queueId(&queue), static_cast<Word>(depth));
}

void
EventTracer::onPopTimeout(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::PopTimeout,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onPushTimeout(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::PushTimeout,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onWatchdogTrip(const Core &core, bool nested)
{
    _trace.record(_track, core.cycles(), EventKind::WatchdogTrip,
                  nested ? 1 : 0);
}

void
EventTracer::onHeaderInsert(const Core &core, int port,
                            const QueueBase &queue, FrameId frame)
{
    _trace.record(_track, core.cycles(), EventKind::HeaderInsert,
                  static_cast<std::uint8_t>(port),
                  _trace.queueId(&queue), static_cast<Word>(frame));
}

void
EventTracer::onHeaderDropped(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::HeaderDropped,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onAmTransition(const Core &core, int port,
                            std::uint8_t from, std::uint8_t to,
                            Word info)
{
    const std::uint16_t packed = static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(from) << 8) | to);
    _trace.record(_track, core.cycles(), EventKind::AmTransition,
                  static_cast<std::uint8_t>(port), packed, info);
}

void
EventTracer::onAmPad(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::AmPad,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onAmDiscardItem(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::AmDiscardItem,
                  static_cast<std::uint8_t>(port));
}

void
EventTracer::onAmDiscardHeader(const Core &core, int port)
{
    _trace.record(_track, core.cycles(), EventKind::AmDiscardHeader,
                  static_cast<std::uint8_t>(port));
}

} // namespace commguard
