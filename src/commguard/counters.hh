/**
 * @file
 * Hot-path suboperation counters for the CommGuard modules.
 *
 * One instance per core, shared by its header inserter, alignment
 * managers, queue managers, and active-fc counter. The fields mirror
 * the suboperations of paper Tables 2-3 so the overhead evaluation
 * (Figs. 12 and 14) reads directly from a run.
 *
 * The fields are metrics::Counter values — plain embedded 64-bit
 * counts on the increment path — and linkTo() publishes them into the
 * per-run metrics registry, from which every reporting layer (metric
 * snapshots, RunOutcome, JSONL export) reads.
 */

#ifndef COMMGUARD_COMMGUARD_COUNTERS_HH
#define COMMGUARD_COMMGUARD_COUNTERS_HH

#include "common/metrics.hh"
#include "common/types.hh"

namespace commguard
{

/** Per-core CommGuard suboperation counters. */
struct CgCounters
{
    using Counter = metrics::Counter;

    // Memory events in the queue substrate (Fig. 12).
    Counter dataStores;    //!< Item pushes.
    Counter dataLoads;     //!< Item pops.
    Counter headerStores;  //!< Header pushes.
    Counter headerLoads;   //!< Header pops.

    // Table 3 suboperation classes (Fig. 14).
    Counter headerBitOps;      //!< is-header tag checks.
    Counter eccChecks;         //!< check-ECC for received headers.
    Counter eccComputes;       //!< compute-ECC for inserted headers.
    Counter fsmOps;            //!< FSM-check/update operations.
    Counter counterOps;        //!< active-fc reads/increments.
    Counter prepareHeaderOps;  //!< prepare-header operations.

    // Realignment activity (Figs. 7-8).
    Counter paddedItems;
    Counter discardedItems;
    Counter discardedHeaders;
    Counter acceptedItems;

    // Timeout recovery.
    Counter headerDropsOnTimeout;

    /**
     * AM pop-event occupancy per FSM state (bucket order matches
     * AmState): the per-node hardware-activity breakdown of the
     * stage-profiling view. Shared by the core's alignment managers.
     */
    metrics::Histogram amStateOccupancy{
        {"RcvCmp", "ExpHdr", "DiscFr", "Disc", "Pdg"}};

    /** Register every counter in @p registry under @p prefix. */
    void
    linkTo(metrics::Registry &registry,
           const std::string &prefix) const
    {
        registry.link(prefix + "/dataStores", dataStores);
        registry.link(prefix + "/dataLoads", dataLoads);
        registry.link(prefix + "/headerStores", headerStores);
        registry.link(prefix + "/headerLoads", headerLoads);
        registry.link(prefix + "/headerBitOps", headerBitOps);
        registry.link(prefix + "/eccChecks", eccChecks);
        registry.link(prefix + "/eccComputes", eccComputes);
        registry.link(prefix + "/fsmOps", fsmOps);
        registry.link(prefix + "/counterOps", counterOps);
        registry.link(prefix + "/prepareHeaderOps", prepareHeaderOps);
        registry.link(prefix + "/paddedItems", paddedItems);
        registry.link(prefix + "/discardedItems", discardedItems);
        registry.link(prefix + "/discardedHeaders", discardedHeaders);
        registry.link(prefix + "/acceptedItems", acceptedItems);
        registry.link(prefix + "/headerDropsOnTimeout",
                      headerDropsOnTimeout);
        registry.link(prefix + "/amState", amStateOccupancy);
    }
};

} // namespace commguard

#endif // COMMGUARD_COMMGUARD_COUNTERS_HH
