/**
 * @file
 * CommGuard queue manager (QM): reliable transfer of items and headers.
 *
 * Paper §4.3: the QM (i) sends/receives items through the memory
 * subsystem, (ii) separates items and headers, and (iii) ECC-checks
 * headers. This class wraps one queue endpoint, performing those duties
 * and recording every suboperation the evaluation counts: data vs
 * header memory events (Fig. 12), header-bit checks and ECC operations
 * (Fig. 14, Table 3).
 */

#ifndef COMMGUARD_COMMGUARD_QUEUE_MANAGER_HH
#define COMMGUARD_COMMGUARD_QUEUE_MANAGER_HH

#include "commguard/counters.hh"
#include "queue/queue_base.hh"

namespace commguard
{

/**
 * Per-endpoint reliable queue access with suboperation accounting.
 */
class QueueManager
{
  public:
    /**
     * @param queue    Underlying storage (normally a WorkingSetQueue).
     * @param counters Suboperation accounting target (shared per core).
     */
    QueueManager(QueueBase &queue, CgCounters &counters)
        : _queue(queue), _counters(counters)
    {}

    /** Producer-side: store one data item. */
    QueueOpStatus
    pushItem(Word value)
    {
        const QueueOpStatus status = _queue.tryPush(makeItem(value));
        if (status == QueueOpStatus::Ok)
            ++_counters.dataStores;
        return status;
    }

    /** Producer-side: store one pre-encoded frame header. */
    QueueOpStatus
    pushHeader(const QueueWord &header)
    {
        const QueueOpStatus status = _queue.tryPush(header);
        if (status == QueueOpStatus::Ok)
            ++_counters.headerStores;
        return status;
    }

    /**
     * Consumer-side: load the next data unit and classify it via the
     * header tag bit (Table 3: "is-header: Check header-bit").
     */
    QueueOpStatus
    pop(QueueWord &word)
    {
        const QueueOpStatus status = _queue.tryPop(word);
        if (status == QueueOpStatus::Ok) {
            ++_counters.headerBitOps;
            if (word.isHeader)
                ++_counters.headerLoads;
            else
                ++_counters.dataLoads;
        }
        return status;
    }

    /**
     * ECC-check a received header and return its frame ID (Table 3:
     * "check-ECC: Single-word ECC set/check"). Headers are end-to-end
     * protected, so a decode that is not Clean indicates a simulator
     * bug and panics.
     */
    FrameId
    checkHeader(const QueueWord &header)
    {
        ++_counters.eccChecks;
        const EccDecode decoded = eccDecode(header.ecc);
        if (decoded.status != EccStatus::Clean) [[unlikely]]
            headerCheckFailed(header, decoded.status);
        return decoded.data;
    }

    QueueBase &queue() { return _queue; }
    CgCounters &counters() { return _counters; }

  private:
    /** Out of line, so checkHeader's inlined fast path stays small. */
    [[noreturn]] static void headerCheckFailed(const QueueWord &header,
                                               EccStatus status);

    QueueBase &_queue;
    CgCounters &_counters;
};

} // namespace commguard

#endif // COMMGUARD_COMMGUARD_QUEUE_MANAGER_HH
