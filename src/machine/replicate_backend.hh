/**
 * @file
 * N-modular firing replication with output voting.
 *
 * ReplicateBackend protects the *computation* of each filter firing
 * rather than the communication substrate: every frame-computation
 * invocation is executed R times (default 2) against the same inputs,
 * the replicas' outputs are compared word-by-word by the reliable
 * runtime, and only the voted result is pushed downstream. Inputs are
 * popped once (by replica 0), logged, and replayed to later replicas;
 * the core's store journal rolls the memory image back between
 * replicas so every replica starts from the same state.
 *
 * The backend rides the reliable-queue substrate (the registry pairs
 * it with ReliableQueue edges), so its failure model is pure compute
 * errors — the dual of CommGuard, which protects the queues and leaves
 * the computation exposed. Voting work is charged via
 * Core::chargeReliableOps so overhead comparisons see the replication
 * cost without exposing it to error injection.
 */

#ifndef COMMGUARD_MACHINE_REPLICATE_BACKEND_HH
#define COMMGUARD_MACHINE_REPLICATE_BACKEND_HH

#include <cstddef>
#include <string>
#include <vector>

#include "machine/comm_backend.hh"

namespace commguard
{

/** Hot-path counters of the replication runtime. */
struct ReplCounters
{
    using Counter = metrics::Counter;

    Counter replays;           //!< Extra (non-first) replica executions.
    Counter votedWords;        //!< Output words flushed after voting.
    Counter voteMismatches;    //!< Output positions where replicas split.
    Counter votedCorrections;  //!< Positions where replica 0 was outvoted.
    Counter replayUnderflows;  //!< Replayed pops past the input log.
    Counter flushDrops;        //!< Voted words dropped on flush timeout.

    void
    linkTo(metrics::Registry &registry, const std::string &prefix) const
    {
        registry.link(prefix + "/replays", replays);
        registry.link(prefix + "/votedWords", votedWords);
        registry.link(prefix + "/voteMismatches", voteMismatches);
        registry.link(prefix + "/votedCorrections", votedCorrections);
        registry.link(prefix + "/replayUnderflows", replayUnderflows);
        registry.link(prefix + "/flushDrops", flushDrops);
    }
};

/**
 * Per-core replication endpoint: record/replay inputs, buffer and vote
 * outputs, demand invocation replays from the runtime.
 */
class ReplicateBackend : public CommBackend
{
  public:
    /**
     * @param ins      Incoming queues.
     * @param outs     Outgoing queues.
     * @param replicas Executions per invocation (>= 2).
     */
    ReplicateBackend(std::vector<QueueBase *> ins,
                     std::vector<QueueBase *> outs, int replicas = 2);

    /** Enables store journaling on the core for replay rollback. */
    void bindCore(Core *core) override;

    QueueOpStatus push(int port, Word value) override;
    BackendPopResult pop(int port) override;

    QueueOpStatus
    newFrameComputation() override
    {
        return QueueOpStatus::Ok;
    }

    QueueOpStatus
    endOfComputation() override
    {
        return QueueOpStatus::Ok;
    }

    InvocationVerdict invocationDone() override;

    Word timeoutPop(int port) override;
    void timeoutFrameEvent() override;

    void
    linkMetrics(metrics::Registry &registry,
                const std::string &prefix) override
    {
        _counters.linkTo(registry, "repl/" + prefix);
    }

    int replicas() const { return _replicas; }
    ReplCounters &counters() { return _counters; }
    const ReplCounters &counters() const { return _counters; }

  private:
    /** Majority-vote the buffered replica outputs into _voted. */
    void voteOutputs();

    std::vector<QueueBase *> _ins;
    std::vector<QueueBase *> _outs;
    int _replicas;

    ReplCounters _counters;

    /** Values replica 0 popped, replayed to later replicas. */
    std::vector<std::vector<Word>> _inLog;
    std::vector<std::size_t> _inCursor;

    /** Per-replica, per-port buffered outputs. */
    std::vector<std::vector<std::vector<Word>>> _outBuf;

    /** Current replica index (0 = the recording execution). */
    int _replica = 0;

    /** Voted outputs being flushed (resumable across Blocked). */
    bool _flushing = false;
    std::vector<std::vector<Word>> _voted;
    std::size_t _flushPort = 0;
    std::size_t _flushIndex = 0;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_REPLICATE_BACKEND_HH
