/**
 * @file
 * CommGuard queue manager storage with working-set sub-regions (§5.1).
 *
 * "The QM follows the StreamIt implementation for a parallel queue; a
 * 320KB memory region divided to 8 sub-regions to avoid per-item access
 * to the head/tail pointers." Producers and consumers operate on local
 * working sets; only when a working set fills/drains does the QM touch
 * the ECC-protected shared pointers (Table 3: "QM-get-new-workset: 10
 * check/compute-ECC operations for shared pointer access through QM").
 *
 * Functionally this is still a reliable FIFO; the sub-region structure
 * matters for the overhead accounting the evaluation reports (Figs. 12
 * and 14), which this class records.
 */

#ifndef COMMGUARD_QUEUE_WORKING_SET_QUEUE_HH
#define COMMGUARD_QUEUE_WORKING_SET_QUEUE_HH

#include "queue/ring_queue.hh"

namespace commguard
{

/**
 * Reliable queue with working-set accounting.
 */
class WorkingSetQueue final : public RingQueue
{
  public:
    /** ECC operations per shared-pointer working-set switch (Table 3). */
    static constexpr Count eccOpsPerWorksetSwitch = 10;

    /**
     * @param capacity Queue capacity in words.
     * @param sub_regions Number of working-set sub-regions (paper: 8).
     * @param recycle Optional backing-store freelist (see RingQueue).
     */
    WorkingSetQueue(std::string name, std::size_t capacity,
                    unsigned sub_regions = 8,
                    RecyclePool<QueueWord> *recycle = nullptr);

    // Defined here, on a final class, so the CommGuard queue manager's
    // pop and push inline the ring and the working-set accounting.
    QueueOpStatus
    tryPush(const QueueWord &word) override
    {
        const QueueOpStatus status = RingQueue::tryPush(word);
        if (status == QueueOpStatus::Ok)
            countWorksetOp(_pushesInWorkset);
        return status;
    }

    QueueOpStatus
    tryPop(QueueWord &word) override
    {
        const QueueOpStatus status = RingQueue::tryPop(word);
        if (status == QueueOpStatus::Ok)
            countWorksetOp(_popsInWorkset);
        return status;
    }

    /** Words per working-set sub-region. */
    std::size_t worksetWords() const { return _worksetWords; }

    /** Total ECC operations charged to working-set pointer accesses. */
    Count worksetEccOps() const { return _counters.worksetEccOps; }

  private:
    /**
     * Count one completed operation on a working set; filling it
     * switches to the next one through the shared pointers.
     */
    void
    countWorksetOp(std::size_t &ops_in_workset)
    {
        if (++ops_in_workset >= _worksetWords) {
            ops_in_workset = 0;
            ++_counters.worksetSwitches;
            _counters.worksetEccOps += eccOpsPerWorksetSwitch;
        }
    }

    std::size_t _worksetWords;
    std::size_t _pushesInWorkset = 0;
    std::size_t _popsInWorkset = 0;
};

} // namespace commguard

#endif // COMMGUARD_QUEUE_WORKING_SET_QUEUE_HH
