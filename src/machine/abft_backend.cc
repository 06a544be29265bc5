#include "machine/abft_backend.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "machine/core.hh"
#include "queue/queue_word.hh"

namespace commguard
{

AbftBackend::AbftBackend(std::vector<QueueBase *> ins,
                         std::vector<QueueBase *> outs,
                         std::vector<bool> in_guarded,
                         std::vector<Count> in_block_items,
                         std::vector<Count> out_block_items,
                         std::vector<Count> in_total_items,
                         std::vector<Count> out_total_items)
    : _ins(std::move(ins)), _outs(std::move(outs))
{
    if (in_guarded.size() != _ins.size() ||
        in_block_items.size() != _ins.size() ||
        in_total_items.size() != _ins.size())
        panic("AbftBackend: per-input vector count mismatch");
    if (out_block_items.size() != _outs.size() ||
        out_total_items.size() != _outs.size())
        panic("AbftBackend: per-output vector count mismatch");

    _in.resize(_ins.size());
    for (std::size_t i = 0; i < _ins.size(); ++i) {
        _in[i].guarded = in_guarded[i];
        _in[i].blockItems = in_block_items[i] > 0 ? in_block_items[i]
                                                  : Count(1);
        _in[i].totalItems = in_total_items[i];
    }
    _out.resize(_outs.size());
    for (std::size_t i = 0; i < _outs.size(); ++i) {
        _out[i].blockItems = out_block_items[i] > 0 ? out_block_items[i]
                                                    : Count(1);
        _out[i].totalItems = out_total_items[i];
    }
}

// ---------------------------------------------------------------------
// Producer side
// ---------------------------------------------------------------------

void
AbftBackend::sealBlock(OutState &out)
{
    out.pendS = out.runS;
    out.pendW = out.runW;
    out.pendLeft = 2;
    out.runS = 0;
    out.runW = 0;
    out.runCount = 0;
    ++_counters.checksumBlocks;
}

bool
AbftBackend::flushPending(int port, OutState &out)
{
    QueueBase &queue = *_outs[port];
    while (out.pendLeft > 0) {
        const Word checksum = out.pendLeft == 2 ? out.pendS : out.pendW;
        if (queue.tryPush(makeHeader(
                static_cast<FrameId>(checksum))) ==
            QueueOpStatus::Blocked)
            return false;
        --out.pendLeft;
        // Checksum words are extra memory traffic beyond the data
        // pushes the core's own commits account for. The reliable
        // ABFT module runs their queue routine, so the cost is
        // charged as reliable ops — never against the PPU scope
        // budget (whose loader estimate covers data rates only) and
        // never exposed to injection.
        _core->chargeQueueTransfer();
        _core->chargeReliableOps(queue.opCost());
        if (TraceSink *t = _core->traceSink()) [[unlikely]]
            t->onQueueDepth(*_core, queue, queue.size());
    }
    return true;
}

QueueOpStatus
AbftBackend::push(int port, Word value)
{
    OutState &out = _out[port];
    if (!flushPending(port, out))
        return QueueOpStatus::Blocked;

    QueueBase &queue = *_outs[port];
    if (queue.tryPush(makeItem(value)) == QueueOpStatus::Blocked)
        return QueueOpStatus::Blocked;
    if (queue.opCost() > 0)
        _core->exposeQueueWindow(queue.opCost(), queue);
    if (TraceSink *t = _core->traceSink()) [[unlikely]]
        t->onQueueDepth(*_core, queue, queue.size());

    out.runS += value;
    out.runW += static_cast<Word>(out.runCount + 1) * value;
    ++out.runCount;
    ++out.pushed;
    _core->chargeReliableOps(abftInstsPerItem);
    if (out.runCount >= out.blockItems)
        sealBlock(out);
    return QueueOpStatus::Ok;
}

QueueOpStatus
AbftBackend::endOfComputation()
{
    for (; _eocPort < _outs.size(); ++_eocPort) {
        OutState &out = _out[_eocPort];
        if (!flushPending(static_cast<int>(_eocPort), out))
            return QueueOpStatus::Blocked;
        if (out.runCount > 0) {
            // Seal the final partial block so its items stay covered.
            sealBlock(out);
            if (!flushPending(static_cast<int>(_eocPort), out))
                return QueueOpStatus::Blocked;
        }
    }
    return QueueOpStatus::Ok;
}

void
AbftBackend::timeoutPush(int port)
{
    // If the stall was a pending checksum word, give up on it so data
    // can flow again; the core drops the data item either way.
    OutState &out = _out[port];
    if (out.pendLeft > 0) {
        --out.pendLeft;
        ++_counters.droppedChecksums;
    }
}

void
AbftBackend::timeoutFrameEvent()
{
    // End-of-computation checksum flush stalled past the QM timeout.
    if (_eocPort < _outs.size() && _out[_eocPort].pendLeft > 0) {
        --_out[_eocPort].pendLeft;
        ++_counters.droppedChecksums;
    }
}

// ---------------------------------------------------------------------
// Consumer side
// ---------------------------------------------------------------------

void
AbftBackend::verifyBlock(InState &in, Count expected)
{
    _core->chargeReliableOps(abftInstsPerItem *
                                 static_cast<Count>(in.fill.size()) +
                             abftInstsPerBlockVerify);

    if (in.fill.size() != expected) {
        // Items were lost (push timeouts, underflow): pad with benign
        // zeros; the checksums cannot be trusted against a different
        // population, so no correction is attempted.
        ++_counters.shortBlocks;
        ++_counters.uncorrectableBlocks;
        in.fill.resize(expected, 0);
        return;
    }

    Word s = 0;
    Word w = 0;
    for (std::size_t i = 0; i < in.fill.size(); ++i) {
        s += in.fill[i];
        w += static_cast<Word>(i + 1) * in.fill[i];
    }
    const Word ds = in.chk[0] - s;
    const Word dw = in.chk[1] - w;
    if (ds == 0 && dw == 0)
        return;

    ++_counters.mismatchBlocks;
    if (ds != 0) {
        // A single corrupted item at position j satisfies
        // (j+1) * dS == dW (mod 2^32); a unique solution localizes it.
        std::size_t hit = in.fill.size();
        int hits = 0;
        for (std::size_t j = 0; j < in.fill.size(); ++j) {
            if (static_cast<Word>(j + 1) * ds == dw) {
                hit = j;
                ++hits;
            }
        }
        if (hits == 1) {
            in.fill[hit] += ds;
            ++_counters.correctedItems;
            return;
        }
    }
    // dS == 0 with dW != 0, or an ambiguous/absent position: more than
    // one error (or a lost checksum misaligned the block). Deliver the
    // block as-is rather than guessing.
    ++_counters.uncorrectableBlocks;
}

BackendPopResult
AbftBackend::pop(int port)
{
    InState &in = _in[port];
    QueueBase &queue = *_ins[port];

    if (!in.guarded) {
        // Unguarded stream (no checksums): plain passthrough.
        QueueWord word;
        if (queue.tryPop(word) == QueueOpStatus::Blocked)
            return {true, 0};
        if (queue.opCost() > 0)
            _core->exposeQueueWindow(queue.opCost(), queue);
        if (TraceSink *t = _core->traceSink()) [[unlikely]]
            t->onQueueDepth(*_core, queue, queue.size());
        return {false, word.value};
    }

    if (in.serveIx < in.data.size()) {
        // The error-prone pop routine is charged per item *served*,
        // not when the block is buffered: a block can span several
        // invocations, and bursting its whole queue cost into the
        // scope budget of the invocation that happens to receive it
        // would trip the watchdog even error-free. Per-serve charging
        // matches the loader's per-invocation estimate exactly.
        if (queue.opCost() > 0)
            _core->exposeQueueWindow(queue.opCost(), queue);
        return {false, in.data[in.serveIx++]};
    }

    const Count consumed = in.deliveredBlocks * in.blockItems;
    const Count expected =
        consumed >= in.totalItems
            ? Count(0)
            : std::min(in.blockItems, in.totalItems - consumed);
    if (expected == 0) {
        // Past the planned stream (padded extra pops): passthrough.
        QueueWord word;
        if (queue.tryPop(word) == QueueOpStatus::Blocked)
            return {true, 0};
        if (queue.opCost() > 0)
            _core->exposeQueueWindow(queue.opCost(), queue);
        if (TraceSink *t = _core->traceSink()) [[unlikely]]
            t->onQueueDepth(*_core, queue, queue.size());
        return {false, word.value};
    }

    // Receive the next block: data items followed by its two checksum
    // headers. Resumable: a Blocked pop leaves fill/chk intact.
    while (in.chkCount < 2) {
        QueueWord word;
        if (queue.tryPop(word) == QueueOpStatus::Blocked)
            return {true, 0};
        if (TraceSink *t = _core->traceSink()) [[unlikely]]
            t->onQueueDepth(*_core, queue, queue.size());
        if (word.isHeader) {
            in.chk[in.chkCount++] = word.value;
            in.strayRun = 0;
            // Checksum words are extra traffic beyond the one data
            // word this core pop accounts for; the reliable ABFT
            // module runs their queue routine (see flushPending).
            _core->chargeQueueTransfer();
            _core->chargeReliableOps(queue.opCost());
        } else if (in.fill.size() < expected) {
            // Charged when served (see above), not here.
            in.fill.push_back(word.value);
        } else {
            // A lost checksum upstream bled the next block into this
            // one; drop the overflow to resynchronize at the headers.
            ++_counters.strayItems;
            _core->chargeQueueTransfer();
            if (queue.opCost() > 0)
                _core->exposeQueueWindow(queue.opCost(), queue);
            if (++in.strayRun >= 4 * in.blockItems + abftResyncSlack) {
                // A pointer-corrupted queue can look non-empty forever
                // — give up on this block's checksums and deliver it
                // unverified so the consumer keeps firing.
                _counters.droppedChecksums +=
                    static_cast<Count>(2 - in.chkCount);
                ++_counters.uncorrectableBlocks;
                ++in.deliveredBlocks;
                in.data = std::move(in.fill);
                in.fill.clear();
                in.serveIx = 0;
                in.chkCount = 0;
                in.strayRun = 0;
                if (queue.opCost() > 0)
                    _core->exposeQueueWindow(queue.opCost(), queue);
                return {false, in.data[in.serveIx++]};
            }
        }
    }

    verifyBlock(in, expected);
    ++in.deliveredBlocks;
    in.data = std::move(in.fill);
    in.fill.clear();
    in.serveIx = 0;
    in.chkCount = 0;
    in.strayRun = 0;
    if (queue.opCost() > 0)
        _core->exposeQueueWindow(queue.opCost(), queue);
    return {false, in.data[in.serveIx++]};
}

Word
AbftBackend::timeoutPop(int port)
{
    // The QM gives up on a starved pop: deliver a benign zero. The
    // partially-filled block stays intact and resumes on the next pop.
    (void)port;
    ++_counters.timeoutPads;
    return 0;
}

} // namespace commguard
