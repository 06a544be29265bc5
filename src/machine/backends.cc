#include "machine/backends.hh"

#include "common/logging.hh"
#include "machine/core.hh"

namespace commguard
{

// ---------------------------------------------------------------------
// RawBackend
// ---------------------------------------------------------------------

QueueOpStatus
RawBackend::push(int port, Word value)
{
    QueueBase &queue = *_outs[port];
    const QueueOpStatus status = queue.tryPush(makeItem(value));
    if (status == QueueOpStatus::Ok && queue.opCost() > 0) {
        // Software queue routine: its pointer state is register-
        // resident for the duration of the routine (QME exposure).
        _core->exposeQueueWindow(queue.opCost(), queue);
    }
    if (status == QueueOpStatus::Ok) {
        if (TraceSink *t = _core->traceSink()) [[unlikely]]
            t->onQueueDepth(*_core, queue, queue.size());
    }
    return status;
}

BackendPopResult
RawBackend::pop(int port)
{
    QueueBase &queue = *_ins[port];
    QueueWord word;
    if (queue.tryPop(word) == QueueOpStatus::Blocked)
        return {true, 0};
    if (queue.opCost() > 0)
        _core->exposeQueueWindow(queue.opCost(), queue);
    if (TraceSink *t = _core->traceSink()) [[unlikely]]
        t->onQueueDepth(*_core, queue, queue.size());
    // Headers never reach raw configurations; if one does (miswired
    // test), its raw value passes through as a data item.
    return {false, word.value};
}

// ---------------------------------------------------------------------
// CommGuardBackend
// ---------------------------------------------------------------------

CommGuardBackend::CommGuardBackend(std::vector<QueueBase *> ins,
                                   std::vector<QueueBase *> outs,
                                   Count frame_downscale)
    : CommGuardBackend(
          ins, outs,
          std::vector<Count>(ins.size(), frame_downscale),
          std::vector<Count>(outs.size(), frame_downscale))
{
}

CommGuardBackend::CommGuardBackend(std::vector<QueueBase *> ins,
                                   std::vector<QueueBase *> outs,
                                   std::vector<Count> in_scales,
                                   std::vector<Count> out_scales,
                                   std::vector<bool> in_guarded)
    : _inGuarded(in_guarded.begin(), in_guarded.end()),
      _fallbackFc(1, &_counters)
{
    if (in_scales.size() != ins.size() ||
        out_scales.size() != outs.size())
        panic("CommGuardBackend: per-edge scale count mismatch");
    if (_inGuarded.empty())
        _inGuarded.assign(ins.size(), 1);
    if (_inGuarded.size() != ins.size())
        panic("CommGuardBackend: per-edge guard count mismatch");

    _inQms.reserve(ins.size());
    _ams.reserve(ins.size());
    _inFcs.reserve(ins.size());
    for (std::size_t i = 0; i < ins.size(); ++i) {
        _inQms.emplace_back(*ins[i], _counters);
        _ams.emplace_back(_counters);
        _inFcs.emplace_back(in_scales[i], &_counters);
    }

    _outQms.reserve(outs.size());
    _outFcs.reserve(outs.size());
    for (std::size_t i = 0; i < outs.size(); ++i) {
        _outQms.emplace_back(*outs[i], _counters);
        _outFcs.emplace_back(out_scales[i], &_counters);
    }
    // Separate loop: _outQms is fully built, so pointers are stable.
    for (QueueManager &qm : _outQms) {
        _his.push_back(std::make_unique<HeaderInserter>(
            std::vector<QueueManager *>{&qm}, _counters));
    }
    _outNeedsHeader.assign(outs.size(), false);
}

ActiveFcCounter &
CommGuardBackend::activeFc()
{
    if (!_outFcs.empty())
        return _outFcs.front();
    if (!_inFcs.empty())
        return _inFcs.front();
    return _fallbackFc;
}

QueueOpStatus
CommGuardBackend::push(int port, Word value)
{
    const QueueOpStatus status = _outQms[port].pushItem(value);
    if (status == QueueOpStatus::Ok) {
        if (TraceSink *t = _core->traceSink()) [[unlikely]] {
            QueueBase &queue = _outQms[port].queue();
            t->onQueueDepth(*_core, queue, queue.size());
        }
    }
    return status;
}

BackendPopResult
CommGuardBackend::pop(int port)
{
    if (!_inGuarded[port]) {
        // Unguarded edge (ablation): plain QM pop, no alignment.
        QueueWord word;
        if (_inQms[port].pop(word) == QueueOpStatus::Blocked)
            return {true, 0};
        ++_counters.acceptedItems;
        if (TraceSink *t = _core->traceSink()) [[unlikely]] {
            QueueBase &queue = _inQms[port].queue();
            t->onQueueDepth(*_core, queue, queue.size());
        }
        return {false, word.value};
    }

    // Snapshot the AM-visible state so an attached tracer can replay
    // what this evaluation did as per-unit events (counter diffing:
    // the AM itself stays trace-free).
    const AmState am_before = _ams[port].state();
    const Count pads_before = _counters.paddedItems;
    const Count items_before = _counters.discardedItems;
    const Count headers_before = _counters.discardedHeaders;

    const Count before = _counters.dataLoads + _counters.headerLoads;
    const AmPopResult result =
        _ams[port].onPop(_inQms[port], _inFcs[port].value());
    // Charge memory-subsystem cycles for queue words consumed beyond
    // the one the core's own pop commit accounts for (discarded items
    // and header pops).
    const Count consumed =
        _counters.dataLoads + _counters.headerLoads - before;
    for (Count i = 1; i < consumed; ++i)
        _core->chargeQueueTransfer();

    if (TraceSink *t = _core->traceSink()) [[unlikely]] {
        for (Count k = _counters.discardedItems - items_before; k > 0;
             --k)
            t->onAmDiscardItem(*_core, port);
        for (Count k = _counters.discardedHeaders - headers_before;
             k > 0; --k)
            t->onAmDiscardHeader(*_core, port);
        for (Count k = _counters.paddedItems - pads_before; k > 0; --k)
            t->onAmPad(*_core, port);
        const AmState am_after = _ams[port].state();
        if (am_after != am_before) {
            // Repairs precede the transition so a realignment episode
            // closes after its pads/discards (forensics join order).
            const Word info =
                am_after == AmState::Pdg
                    ? static_cast<Word>(_ams[port].pendingHeader())
                    : static_cast<Word>(_inFcs[port].value());
            t->onAmTransition(*_core, port,
                              static_cast<std::uint8_t>(am_before),
                              static_cast<std::uint8_t>(am_after),
                              info);
        }
        if (result.kind != AmPopResult::Kind::Blocked) {
            QueueBase &queue = _inQms[port].queue();
            t->onQueueDepth(*_core, queue, queue.size());
        }
    }

    if (result.kind == AmPopResult::Kind::Blocked)
        return {true, 0};
    return {false, result.value};
}

QueueOpStatus
CommGuardBackend::newFrameComputation()
{
    TraceSink *t = _core->traceSink();
    if (!_framePending) {
        _framePending = true;

        // The PPU module ticks every frame domain's redundant
        // active-fc counter once per frame computation (§5.4).
        for (std::size_t i = 0; i < _inFcs.size(); ++i) {
            const ActiveFcCounter::Tick tick =
                _inFcs[i].onFrameComputation();
            if (tick.newFrame) {
                const AmState am_before = _ams[i].state();
                _ams[i].onNewFrameComputation(tick.id);
                if (t != nullptr &&
                    _ams[i].state() != am_before) [[unlikely]] {
                    t->onAmTransition(
                        *_core, static_cast<int>(i),
                        static_cast<std::uint8_t>(am_before),
                        static_cast<std::uint8_t>(_ams[i].state()),
                        static_cast<Word>(tick.id));
                }
            }
        }
        for (std::size_t i = 0; i < _outFcs.size(); ++i) {
            const ActiveFcCounter::Tick tick =
                _outFcs[i].onFrameComputation();
            _outNeedsHeader[i] = tick.newFrame;
        }
        _nextHeaderEdge = 0;
    }

    for (; _nextHeaderEdge < _outQms.size(); ++_nextHeaderEdge) {
        if (!_outNeedsHeader[_nextHeaderEdge])
            continue;
        // A retry that resumes past a skipped (timed-out) port
        // completes without storing a header, so the event must track
        // the counter, not the call.
        const Count stores_before = _counters.headerStores;
        if (_his[_nextHeaderEdge]->insert(
                _outFcs[_nextHeaderEdge].value()) ==
            QueueOpStatus::Blocked) {
            return QueueOpStatus::Blocked;
        }
        if (t != nullptr &&
            _counters.headerStores != stores_before) [[unlikely]] {
            QueueBase &queue = _outQms[_nextHeaderEdge].queue();
            t->onHeaderInsert(*_core,
                              static_cast<int>(_nextHeaderEdge), queue,
                              _outFcs[_nextHeaderEdge].value());
            t->onQueueDepth(*_core, queue, queue.size());
        }
        // Header pushes are extra memory traffic on the producer core.
        _core->chargeQueueTransfer();
    }

    _framePending = false;
    return QueueOpStatus::Ok;
}

QueueOpStatus
CommGuardBackend::endOfComputation()
{
    for (; _eocEdge < _his.size(); ++_eocEdge) {
        const Count stores_before = _counters.headerStores;
        if (_his[_eocEdge]->insertEndOfComputation() ==
            QueueOpStatus::Blocked) {
            return QueueOpStatus::Blocked;
        }
        if (TraceSink *t = _core->traceSink();
            t != nullptr && _counters.headerStores != stores_before)
            [[unlikely]] {
            QueueBase &queue = _outQms[_eocEdge].queue();
            t->onHeaderInsert(*_core, static_cast<int>(_eocEdge),
                              queue, endOfComputationId);
            t->onQueueDepth(*_core, queue, queue.size());
        }
    }
    return QueueOpStatus::Ok;
}

Word
CommGuardBackend::timeoutPop(int port)
{
    // Paper §5.1: "A timeout may cause incorrect data to be transmitted
    // but frame checking would still ensure alignment at the frame
    // boundaries." Deliver a benign zero; the AM state is untouched and
    // realigns on the next header.
    ++_counters.paddedItems;
    if (TraceSink *t = _core->traceSink()) [[unlikely]]
        t->onAmPad(*_core, port);
    return 0;
}

void
CommGuardBackend::timeoutFrameEvent()
{
    const Count drops_before = _counters.headerDropsOnTimeout;
    std::size_t edge = 0;
    // Give up on whichever header insertion is currently stalled.
    if (_framePending && _nextHeaderEdge < _his.size()) {
        edge = _nextHeaderEdge;
        _his[_nextHeaderEdge]->skipBlockedPort();
    } else if (_eocEdge < _his.size()) {
        edge = _eocEdge;
        _his[_eocEdge]->skipBlockedPort();
    }
    if (TraceSink *t = _core->traceSink();
        t != nullptr &&
        _counters.headerDropsOnTimeout != drops_before) [[unlikely]] {
        t->onHeaderDropped(*_core, static_cast<int>(edge));
    }
}

} // namespace commguard
