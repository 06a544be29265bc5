/**
 * @file
 * Shared ring-buffer machinery for the concrete queue implementations.
 *
 * The buffer index is always masked, so even corrupted head/tail
 * pointers can never produce out-of-bounds accesses — corruption
 * produces *wrong data* (stale or skipped slots, bogus occupancy),
 * never a simulator fault, mirroring how a PPU system fails.
 */

#ifndef COMMGUARD_QUEUE_RING_QUEUE_HH
#define COMMGUARD_QUEUE_RING_QUEUE_HH

#include <vector>

#include "common/logging.hh"
#include "common/recycle_pool.hh"
#include "queue/queue_base.hh"

namespace commguard
{

/**
 * Bounded FIFO over a power-of-two ring with absolute head/tail
 * counters (the StreamIt head/tail pointer pair, paper §2.2).
 */
class RingQueue : public QueueBase
{
  public:
    /**
     * @param capacity Enforced exactly as requested (minimum 1): a
     * queue built for 48 words blocks the 49th push. Backing storage
     * is rounded up to a power of two for mask-based indexing only —
     * a swept capacity axis must mean what it says, so the slack
     * slots are never made available.
     * @param recycle Optional buffer freelist the backing store is
     * acquired from and retired to (sweep hot path; must outlive the
     * queue). Recycled storage is re-zeroed, so behavior is bitwise
     * identical to a fresh allocation.
     */
    RingQueue(std::string name, std::size_t capacity,
              RecyclePool<QueueWord> *recycle = nullptr);

    ~RingQueue() override;

    // Defined here so a derived queue's override (and a caller that
    // knows the concrete type) inlines them.
    QueueOpStatus
    tryPush(const QueueWord &word) override
    {
        if (size() >= _capacity) {
            ++_counters.pushBlocked;
            return QueueOpStatus::Blocked;
        }
        _buffer[_tail & _mask] = word;
        ++_tail;
        ++_counters.pushes;
        return QueueOpStatus::Ok;
    }

    QueueOpStatus
    tryPop(QueueWord &word) override
    {
        if (size() == 0) {
            ++_counters.popBlocked;
            return QueueOpStatus::Blocked;
        }
        word = _buffer[_head & _mask];
        ++_head;
        ++_counters.pops;
        return QueueOpStatus::Ok;
    }

    std::size_t
    size() const override
    {
        // Unsigned wraparound: garbage (possibly > capacity) when the
        // pointers have been corrupted, which is exactly the paper's
        // inconsistent full/empty view failure mode.
        return static_cast<Word>(_tail - _head);
    }

    /** The requested capacity, enforced exactly by tryPush(). */
    std::size_t capacity() const override { return _capacity; }

    /** Pow2 backing-store size (>= capacity); mask-indexed slots. */
    std::size_t bufferWords() const { return _buffer.size(); }

    /** Raw pointer access for corruption modeling and tests. */
    Word head() const { return _head; }
    Word tail() const { return _tail; }
    void setHead(Word head) { _head = head; }
    void setTail(Word tail) { _tail = tail; }

    /** Direct slot access for corruption modeling and tests. */
    QueueWord &slot(std::size_t index)
    {
        return _buffer[index & _mask];
    }

  private:
    std::size_t _capacity;  //!< Requested capacity, gated by tryPush.
    RecyclePool<QueueWord> *_recycle;  //!< Not owned; may be null.
    std::vector<QueueWord> _buffer;
    Word _mask;
    Word _head = 0;  //!< Absolute count of completed pops.
    Word _tail = 0;  //!< Absolute count of completed pushes.
};

} // namespace commguard

#endif // COMMGUARD_QUEUE_RING_QUEUE_HH
