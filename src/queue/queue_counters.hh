/**
 * @file
 * Hot-path statistics counters for queue implementations.
 *
 * Queue pushes/pops happen tens of millions of times per run, so these
 * are plain embedded metrics::Counter members; linkTo() publishes them
 * into the per-run metrics registry.
 */

#ifndef COMMGUARD_QUEUE_QUEUE_COUNTERS_HH
#define COMMGUARD_QUEUE_QUEUE_COUNTERS_HH

#include "common/metrics.hh"
#include "common/types.hh"

namespace commguard
{

/** Per-queue event counters. */
struct QueueCounters
{
    using Counter = metrics::Counter;

    Counter pushes;
    Counter pops;
    Counter pushBlocked;
    Counter popBlocked;

    // SoftwareQueue corruption events (paper §3, QME).
    Counter headCorruptions;
    Counter tailCorruptions;
    Counter itemCorruptions;

    // WorkingSetQueue shared-pointer accounting (paper §5.1, Table 3).
    Counter worksetSwitches;
    Counter worksetEccOps;

    // I/O endpoint events.
    Counter underflowPops;
    Counter headersCollected;
    Counter overflowDrops;
    Counter illegalPushes;
    Counter illegalPops;

    /** Register every counter in @p registry under @p prefix. */
    void
    linkTo(metrics::Registry &registry,
           const std::string &prefix) const
    {
        registry.link(prefix + "/pushes", pushes);
        registry.link(prefix + "/pops", pops);
        registry.link(prefix + "/pushBlocked", pushBlocked);
        registry.link(prefix + "/popBlocked", popBlocked);
        registry.link(prefix + "/headCorruptions", headCorruptions);
        registry.link(prefix + "/tailCorruptions", tailCorruptions);
        registry.link(prefix + "/itemCorruptions", itemCorruptions);
        registry.link(prefix + "/worksetSwitches", worksetSwitches);
        registry.link(prefix + "/worksetEccOps", worksetEccOps);
        registry.link(prefix + "/underflowPops", underflowPops);
        registry.link(prefix + "/headersCollected", headersCollected);
        registry.link(prefix + "/overflowDrops", overflowDrops);
        registry.link(prefix + "/illegalPushes", illegalPushes);
        registry.link(prefix + "/illegalPops", illegalPops);
    }
};

} // namespace commguard

#endif // COMMGUARD_QUEUE_QUEUE_COUNTERS_HH
