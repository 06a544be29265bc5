/**
 * @file
 * Concrete communication backends for the protection configurations.
 *
 * RawBackend wires PUSH/POP straight to the underlying queues; used for
 * the unprotected software-queue baseline (Fig. 3b, with SoftwareQueue)
 * and the reliable-queue baseline (Fig. 3c, with ReliableQueue).
 *
 * CommGuardBackend assembles the paper's per-core modules (Fig. 4): the
 * active-fc counters driven by the PPU protection module, header
 * inserters over the outgoing queue managers, and one alignment manager
 * per incoming queue, all sharing the core's Queue Information Table
 * (here: the per-port module state) and suboperation counters.
 *
 * Frame domains (§5.4): every edge carries its own frame granularity
 * (program frame computations per CommGuard frame). "CommGuard can
 * also support varying frame definitions across an application. This
 * requires a redundant active-fc counter per frame domain" — hence one
 * ActiveFcCounter per port; with a uniform scale they all tick in
 * lockstep, degenerating to the paper's default design.
 */

#ifndef COMMGUARD_MACHINE_BACKENDS_HH
#define COMMGUARD_MACHINE_BACKENDS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "commguard/active_fc.hh"
#include "commguard/alignment_manager.hh"
#include "commguard/counters.hh"
#include "commguard/header_inserter.hh"
#include "commguard/queue_manager.hh"
#include "machine/comm_backend.hh"

namespace commguard
{

/**
 * Direct queue access without CommGuard.
 */
class RawBackend : public CommBackend
{
  public:
    RawBackend(std::vector<QueueBase *> ins,
               std::vector<QueueBase *> outs)
        : _ins(std::move(ins)), _outs(std::move(outs))
    {}

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

  private:
    std::vector<QueueBase *> _ins;
    std::vector<QueueBase *> _outs;
};

/**
 * Full CommGuard protection: HI + AM + QM per core.
 */
class CommGuardBackend : public CommBackend
{
  public:
    /**
     * Uniform frame definition (the paper's default): every edge uses
     * @p frame_downscale program frame computations per CommGuard
     * frame.
     *
     * @param ins  Incoming queues (paper: at most ~4 per thread).
     * @param outs Outgoing queues.
     */
    CommGuardBackend(std::vector<QueueBase *> ins,
                     std::vector<QueueBase *> outs,
                     Count frame_downscale = 1);

    /**
     * Varying frame definitions (§5.4): per-edge frame granularities.
     * Both endpoints of an edge must use the same scale for that edge
     * (the loader picks the coarser of the two nodes' domains).
     *
     * @param in_guarded Per-input-edge flag: false bypasses the
     *        alignment manager for that edge (an unguarded stream —
     *        the ablation of the guarded-source-edge decision). Empty
     *        means all guarded.
     */
    CommGuardBackend(std::vector<QueueBase *> ins,
                     std::vector<QueueBase *> outs,
                     std::vector<Count> in_scales,
                     std::vector<Count> out_scales,
                     std::vector<bool> in_guarded = {});

    QueueOpStatus push(int port, Word value) override;
    BackendPopResult pop(int port) override;
    QueueOpStatus newFrameComputation() override;
    QueueOpStatus endOfComputation() override;

    Word timeoutPop(int port) override;
    void timeoutFrameEvent() override;

    bool serializesFrames() const override { return true; }

    CgCounters &counters() { return _counters; }
    const CgCounters &counters() const { return _counters; }
    AlignmentManager &am(int port) { return _ams[port]; }

    /** Frame counter of output edge @p port (its frame domain). */
    ActiveFcCounter &outFc(int port) { return _outFcs[port]; }

    /** Frame counter of input edge @p port (its frame domain). */
    ActiveFcCounter &inFc(int port) { return _inFcs[port]; }

    /**
     * The first output edge's counter (input edge 0 for pure sinks) —
     * the thread's frame progress under the default uniform frame
     * definition, kept for the common case and tests.
     */
    ActiveFcCounter &activeFc();

    void
    linkMetrics(metrics::Registry &registry,
                const std::string &prefix) override
    {
        _counters.linkTo(registry, "cg/" + prefix);
    }

  private:
    CgCounters _counters;
    std::vector<QueueManager> _inQms;
    std::vector<QueueManager> _outQms;
    std::vector<AlignmentManager> _ams;
    /** Per input edge: guarded. Bytes, not bits: pop() reads it. */
    std::vector<std::uint8_t> _inGuarded;

    // Redundant active-fc counters, one per frame domain touched by
    // this core (here: one per port; uniform scales tick in lockstep).
    std::vector<ActiveFcCounter> _inFcs;
    std::vector<ActiveFcCounter> _outFcs;

    // One header inserter per outgoing edge so edges in different
    // frame domains insert independently (each is resumable).
    std::vector<std::unique_ptr<HeaderInserter>> _his;

    // Frame-event latching so Blocked retries are idempotent.
    bool _framePending = false;
    std::vector<bool> _outNeedsHeader;
    std::size_t _nextHeaderEdge = 0;

    // End-of-computation progress (resumable across Blocked retries).
    std::size_t _eocEdge = 0;

    // Fallback counter for cores with no ports at all.
    ActiveFcCounter _fallbackFc;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_BACKENDS_HH
