/**
 * @file
 * Algorithm-based fault tolerance over the communication streams.
 *
 * AbftBackend augments each stream with per-block dual checksums in
 * the style of Huang & Abraham's ABFT: for every block of B data items
 * the producer appends S = sum(x_i) and W = sum((i+1) * x_i) (mod
 * 2^32), transmitted as ECC-protected header words so the corruptible
 * queue substrate cannot silently damage them. The consumer buffers a
 * block, recomputes both sums, and from the residues (dS, dW) locates
 * a single corrupted item at position j = dW/dS - 1 and repairs it in
 * place; multi-error blocks are flagged uncorrectable and delivered
 * as-is.
 *
 * Unlike CommGuard (which protects alignment, not values) this mode
 * detects and corrects *value* corruption in the queues, at the cost
 * of per-item checksum arithmetic on both endpoints — charged via
 * Core::chargeReliableOps so overhead comparisons see it.
 */

#ifndef COMMGUARD_MACHINE_ABFT_BACKEND_HH
#define COMMGUARD_MACHINE_ABFT_BACKEND_HH

#include <cstddef>
#include <string>
#include <vector>

#include "machine/comm_backend.hh"

namespace commguard
{

/** Reliable instructions charged per item for checksum updates. */
constexpr Count abftInstsPerItem = 2;

/** Reliable instructions charged per block verification. */
constexpr Count abftInstsPerBlockVerify = 8;

/**
 * Extra stray items tolerated while resynchronizing on checksum
 * headers, on top of 4 block lengths. A pointer-corrupted software
 * queue can present unbounded garbage without ever blocking; past
 * this budget the consumer gives up on the block's checksums and
 * delivers it unverified so the filter keeps firing.
 */
constexpr Count abftResyncSlack = 64;

/** Hot-path counters of the ABFT runtime. */
struct AbftCounters
{
    using Counter = metrics::Counter;

    Counter checksumBlocks;      //!< Blocks sealed with checksums.
    Counter droppedChecksums;    //!< Checksum words lost to timeouts
                                 //!< or abandoned by resync give-up.
    Counter mismatchBlocks;      //!< Blocks whose residues were nonzero.
    Counter correctedItems;      //!< Single-error items repaired.
    Counter uncorrectableBlocks; //!< Blocks delivered without repair.
    Counter shortBlocks;         //!< Blocks that arrived under-length.
    Counter strayItems;          //!< Items past a block's expected size.
    Counter timeoutPads;         //!< Pops resolved by the QM timeout.

    void
    linkTo(metrics::Registry &registry, const std::string &prefix) const
    {
        registry.link(prefix + "/checksumBlocks", checksumBlocks);
        registry.link(prefix + "/droppedChecksums", droppedChecksums);
        registry.link(prefix + "/mismatchBlocks", mismatchBlocks);
        registry.link(prefix + "/correctedItems", correctedItems);
        registry.link(prefix + "/uncorrectableBlocks",
                      uncorrectableBlocks);
        registry.link(prefix + "/shortBlocks", shortBlocks);
        registry.link(prefix + "/strayItems", strayItems);
        registry.link(prefix + "/timeoutPads", timeoutPads);
    }
};

/**
 * Per-core ABFT endpoint: checksum sealing on pushes, block buffering
 * plus verify/correct on pops.
 */
class AbftBackend : public CommBackend
{
  public:
    /**
     * @param ins             Incoming queues.
     * @param outs            Outgoing queues.
     * @param in_guarded      Per-input flag: false = plain passthrough
     *                        (an unguarded stream carries no checksums).
     * @param in_block_items  Items per checksummed block, per input.
     * @param out_block_items Items per checksummed block, per output.
     * @param in_total_items  Planned items over the whole run, per
     *                        input (bounds the final partial block).
     * @param out_total_items Planned items per output.
     */
    AbftBackend(std::vector<QueueBase *> ins,
                std::vector<QueueBase *> outs,
                std::vector<bool> in_guarded,
                std::vector<Count> in_block_items,
                std::vector<Count> out_block_items,
                std::vector<Count> in_total_items,
                std::vector<Count> out_total_items);

    QueueOpStatus push(int port, Word value) override;
    BackendPopResult pop(int port) override;

    QueueOpStatus
    newFrameComputation() override
    {
        return QueueOpStatus::Ok;
    }

    QueueOpStatus endOfComputation() override;

    Word timeoutPop(int port) override;
    void timeoutPush(int port) override;
    void timeoutFrameEvent() override;

    void
    linkMetrics(metrics::Registry &registry,
                const std::string &prefix) override
    {
        _counters.linkTo(registry, "abft/" + prefix);
    }

    AbftCounters &counters() { return _counters; }
    const AbftCounters &counters() const { return _counters; }

  private:
    /** Producer-side per-output checksum state. */
    struct OutState
    {
        Count blockItems = 0;   //!< Block size B.
        Count totalItems = 0;   //!< Planned items over the run.
        Count pushed = 0;       //!< Data items pushed so far.
        Word runS = 0;          //!< Running sum checksum.
        Word runW = 0;          //!< Running weighted checksum.
        Count runCount = 0;     //!< Items in the open block.
        Word pendS = 0;         //!< Sealed checksums awaiting...
        Word pendW = 0;         //!< ...transmission.
        int pendLeft = 0;       //!< Pending checksum words (2, 1, 0).
    };

    /** Consumer-side per-input block buffer. */
    struct InState
    {
        bool guarded = true;
        Count blockItems = 0;
        Count totalItems = 0;
        Count deliveredBlocks = 0;  //!< Blocks verified and served.
        std::vector<Word> data;     //!< Verified block being served.
        std::size_t serveIx = 0;
        std::vector<Word> fill;     //!< Block being received.
        Word chk[2] = {0, 0};       //!< Received S and W checksums.
        int chkCount = 0;
        Count strayRun = 0;  //!< Strays since the last header/block.
    };

    /** Seal the open block: move running sums to pending. */
    void sealBlock(OutState &out);

    /** Transmit pending checksum words; false when Blocked. */
    bool flushPending(int port, OutState &out);

    /** Verify, maybe correct, and promote the filled block. */
    void verifyBlock(InState &in, Count expected);

    std::vector<QueueBase *> _ins;
    std::vector<QueueBase *> _outs;
    std::vector<InState> _in;
    std::vector<OutState> _out;
    AbftCounters _counters;

    /** End-of-computation progress (resumable across Blocked). */
    std::size_t _eocPort = 0;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_ABFT_BACKEND_HH
