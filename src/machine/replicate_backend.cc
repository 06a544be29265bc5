#include "machine/replicate_backend.hh"

#include <algorithm>

#include "common/logging.hh"
#include "machine/core.hh"

namespace commguard
{

ReplicateBackend::ReplicateBackend(std::vector<QueueBase *> ins,
                                   std::vector<QueueBase *> outs,
                                   int replicas)
    : _ins(std::move(ins)), _outs(std::move(outs)), _replicas(replicas)
{
    if (_replicas < 2)
        panic("ReplicateBackend: needs at least 2 replicas");
    _inLog.resize(_ins.size());
    _inCursor.assign(_ins.size(), 0);
    _outBuf.assign(static_cast<std::size_t>(_replicas),
                   std::vector<std::vector<Word>>(_outs.size()));
    _voted.resize(_outs.size());
}

void
ReplicateBackend::bindCore(Core *core)
{
    CommBackend::bindCore(core);
    core->setStoreJournaling(true);
}

QueueOpStatus
ReplicateBackend::push(int port, Word value)
{
    // Outputs never touch the queue until the replicas agree: buffer
    // them per replica and flush the voted words in invocationDone().
    _outBuf[static_cast<std::size_t>(_replica)][port].push_back(value);
    return QueueOpStatus::Ok;
}

BackendPopResult
ReplicateBackend::pop(int port)
{
    if (_replica == 0) {
        // Recording execution: real pop, logged for replay.
        QueueBase &queue = *_ins[port];
        QueueWord word;
        if (queue.tryPop(word) == QueueOpStatus::Blocked)
            return {true, 0};
        if (queue.opCost() > 0)
            _core->exposeQueueWindow(queue.opCost(), queue);
        if (TraceSink *t = _core->traceSink()) [[unlikely]]
            t->onQueueDepth(*_core, queue, queue.size());
        _inLog[port].push_back(word.value);
        return {false, word.value};
    }

    // Replay execution: serve the logged value. An error during a
    // replay can perturb its pop count past the recording's; pad with
    // zeros rather than touching the real queue so replicas stay
    // input-aligned.
    std::size_t &cursor = _inCursor[port];
    if (cursor >= _inLog[port].size()) {
        ++_counters.replayUnderflows;
        return {false, 0};
    }
    return {false, _inLog[port][cursor++]};
}

Word
ReplicateBackend::timeoutPop(int port)
{
    // The QM pad must be replayed identically to later replicas.
    if (_replica == 0)
        _inLog[port].push_back(0);
    else if (_inCursor[port] < _inLog[port].size())
        ++_inCursor[port];
    return 0;
}

void
ReplicateBackend::voteOutputs()
{
    const std::size_t replicas = static_cast<std::size_t>(_replicas);
    Count reliable_insts = 0;

    for (std::size_t port = 0; port < _outs.size(); ++port) {
        // Majority output length first (a corrupted replica may have
        // pushed a different count); replica 0 wins ties.
        std::size_t best_len = _outBuf[0][port].size();
        std::size_t best_votes = 0;
        for (std::size_t r = 0; r < replicas; ++r) {
            const std::size_t len = _outBuf[r][port].size();
            std::size_t votes = 0;
            for (std::size_t s = 0; s < replicas; ++s)
                votes += _outBuf[s][port].size() == len;
            if (votes > best_votes) {
                best_votes = votes;
                best_len = len;
            }
        }

        std::vector<Word> &voted = _voted[port];
        voted.clear();
        voted.reserve(best_len);
        for (std::size_t i = 0; i < best_len; ++i) {
            Word best_value = 0;
            std::size_t value_votes = 0;
            std::size_t present = 0;
            for (std::size_t r = 0; r < replicas; ++r) {
                if (i >= _outBuf[r][port].size())
                    continue;
                const Word value = _outBuf[r][port][i];
                ++present;
                std::size_t votes = 0;
                for (std::size_t s = 0; s < replicas; ++s) {
                    votes += i < _outBuf[s][port].size() &&
                             _outBuf[s][port][i] == value;
                }
                // First maximum wins, so replica 0 breaks ties.
                if (votes > value_votes) {
                    value_votes = votes;
                    best_value = value;
                }
            }
            if (value_votes < present)
                ++_counters.voteMismatches;
            if (i < _outBuf[0][port].size() &&
                _outBuf[0][port][i] != best_value)
                ++_counters.votedCorrections;
            voted.push_back(best_value);
        }
        // One reliable compare-op per word per extra replica.
        reliable_insts +=
            static_cast<Count>(best_len) * (replicas - 1);
    }
    if (reliable_insts > 0)
        _core->chargeReliableOps(reliable_insts);
}

InvocationVerdict
ReplicateBackend::invocationDone()
{
    if (!_flushing) {
        if (_replica + 1 < _replicas) {
            // Rewind memory and inputs, run the next replica.
            _core->rollbackInvocationStores();
            ++_replica;
            ++_counters.replays;
            std::fill(_inCursor.begin(), _inCursor.end(), 0);
            return InvocationVerdict::Replay;
        }
        voteOutputs();
        _flushing = true;
        _flushPort = 0;
        _flushIndex = 0;
    }

    // Flush the voted outputs (resumable: a full queue reports Blocked
    // and a later retry resumes at _flushPort/_flushIndex).
    for (; _flushPort < _outs.size(); ++_flushPort, _flushIndex = 0) {
        QueueBase &queue = *_outs[_flushPort];
        const std::vector<Word> &voted = _voted[_flushPort];
        while (_flushIndex < voted.size()) {
            if (queue.tryPush(makeItem(voted[_flushIndex])) ==
                QueueOpStatus::Blocked)
                return InvocationVerdict::Blocked;
            ++_flushIndex;
            ++_counters.votedWords;
            _core->chargeQueueTransfer();
            if (queue.opCost() > 0)
                _core->exposeQueueWindow(queue.opCost(), queue);
            if (TraceSink *t = _core->traceSink()) [[unlikely]]
                t->onQueueDepth(*_core, queue, queue.size());
        }
    }

    // Invocation committed: reset for the next frame computation.
    _replica = 0;
    _flushing = false;
    _flushPort = 0;
    _flushIndex = 0;
    for (std::vector<Word> &log : _inLog)
        log.clear();
    std::fill(_inCursor.begin(), _inCursor.end(), 0);
    for (auto &replica_bufs : _outBuf)
        for (std::vector<Word> &buf : replica_bufs)
            buf.clear();
    return InvocationVerdict::Commit;
}

void
ReplicateBackend::timeoutFrameEvent()
{
    // A voted-output flush stalled past the QM timeout: drop the stuck
    // word so the pipeline keeps moving (mirrors the raw push drop).
    if (_flushing && _flushPort < _outs.size() &&
        _flushIndex < _voted[_flushPort].size()) {
        ++_flushIndex;
        ++_counters.flushDrops;
    }
}

} // namespace commguard
