/**
 * @file
 * A partially-protected processor core (PPU, paper §2.1 and [32]).
 *
 * The core functionally executes one filter's frame-computation program
 * with error injection into its register file. The PPU protection
 * contract is enforced here: control-flow and memory-addressing errors
 * never crash or hang the core —
 *  - memory addresses wrap inside core-local memory,
 *  - arithmetic traps (divide-by-zero, bad float conversion) produce
 *    benign values,
 *  - a per-scope watchdog bounds the dynamic instructions of one frame
 *    computation, force-completing runaway invocations.
 *
 * Execution is resumable: a PUSH on a full queue or POP on an empty
 * queue returns Blocked without committing, and a later run() retries
 * the same instruction.
 */

#ifndef COMMGUARD_MACHINE_CORE_HH
#define COMMGUARD_MACHINE_CORE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.hh"
#include "common/recycle_pool.hh"
#include "common/types.hh"
#include "isa/program.hh"
#include "machine/comm_backend.hh"
#include "machine/error_injector.hh"
#include "machine/register_file.hh"
#include "machine/timing.hh"
#include "machine/trace.hh"

namespace commguard
{

/** PPU protection parameters. */
struct PpuConfig
{
    /**
     * Watchdog budget = multiplier x program's estimated insts. The
     * paper's PPU substrate [32] enforces tight per-scope bounds; a
     * small margin keeps corrupted loops from flooding queues with
     * garbage items before the scope is force-completed.
     */
    Count watchdogMultiplier = 2;

    /** Budget when the program carries no estimate. */
    Count defaultScopeBudget = 1'000'000;

    /** Absolute upper bound on any scope budget. */
    Count maxScopeBudget = 64'000'000;

    /**
     * Enforce nested ScopeEnter/ScopeExit budgets (paper SS4.4). When
     * false the scope instructions are no-ops and only the
     * per-invocation watchdog protects against runaway loops
     * (ablation knob).
     */
    bool enforceNestedScopes = true;

    /** Maximum tracked nesting depth (deeper scopes are unguarded). */
    int maxScopeDepth = 8;
};

/** Why a run() slice ended. */
enum class RunStatus
{
    Done,        //!< Invocation completed (Halt or watchdog).
    Blocked,     //!< Stuck on a queue operation; retry later.
    OutOfSteps,  //!< Slice exhausted; more work remains.
};

/** Result of a run() slice. */
struct RunResult
{
    RunStatus status;
    Count executed;  //!< Instructions committed during the slice.
};

/** Hot-path per-core event counters. */
struct CoreCounters
{
    using Counter = metrics::Counter;

    Counter committedInsts;
    Counter cycles;
    Counter loads;
    Counter stores;
    Counter queuePushes;
    Counter queuePops;
    Counter registerFlips;
    Counter scopeWatchdogTrips;
    Counter nestedScopeTrips;
    Counter popTimeouts;
    Counter pushTimeouts;
    Counter invocations;

    /**
     * Scheduling slices this core spent fully blocked on a queue
     * operation (counted by the scheduler): the per-node queue-stall
     * share of the stage-profiling view.
     */
    Counter blockedSlices;

    /** Register every counter in @p registry under @p prefix. */
    void
    linkTo(metrics::Registry &registry,
           const std::string &prefix) const
    {
        registry.link(prefix + "/committedInsts", committedInsts);
        registry.link(prefix + "/cycles", cycles);
        registry.link(prefix + "/loads", loads);
        registry.link(prefix + "/stores", stores);
        registry.link(prefix + "/queuePushes", queuePushes);
        registry.link(prefix + "/queuePops", queuePops);
        registry.link(prefix + "/registerFlips", registerFlips);
        registry.link(prefix + "/scopeWatchdogTrips",
                      scopeWatchdogTrips);
        registry.link(prefix + "/nestedScopeTrips", nestedScopeTrips);
        registry.link(prefix + "/popTimeouts", popTimeouts);
        registry.link(prefix + "/pushTimeouts", pushTimeouts);
        registry.link(prefix + "/invocations", invocations);
        registry.link(prefix + "/blockedSlices", blockedSlices);
    }
};

/**
 * One simulated PPU core.
 */
class Core
{
  public:
    Core(CoreId id, std::string name);

    /** Retires the core-local memory to the recycle pool, if bound. */
    ~Core();

    // ------------------------------------------------------------------
    // Configuration (done once by the loader).
    // ------------------------------------------------------------------

    /**
     * Bind the freelist core-local memory is acquired from and retired
     * to (sweep hot path; must outlive the core). Call before
     * setProgram(); null keeps plain allocation.
     */
    void setMemoryPool(RecyclePool<Word> *pool) { _memoryPool = pool; }

    /**
     * Load the filter program; copies the data segment into memory.
     * Panics unless isa::validate accepts it and its last instruction
     * is Halt or Jmp: run() executes the code unchecked.
     */
    void setProgram(isa::Program program);

    /** Attach the communication backend (not owned). */
    void setBackend(CommBackend *backend);

    void configureInjector(const ErrorInjector::Config &config);
    void setTiming(const TimingConfig &timing) { _timing = timing; }
    void setPpu(const PpuConfig &ppu);

    /** Attach an execution observer (not owned; nullptr disables). */
    void setTraceSink(TraceSink *sink) { _trace = sink; }

    /** The attached observer, or nullptr. */
    TraceSink *traceSink() const { return _trace; }

    // ------------------------------------------------------------------
    // Execution.
    // ------------------------------------------------------------------

    /** Begin a new frame-computation invocation (registers cleared). */
    void startInvocation();

    /** Execute up to @p max_steps instructions. */
    RunResult run(Count max_steps);

    // ------------------------------------------------------------------
    // Blocked-operation recovery (timeout path, paper §5.1).
    // ------------------------------------------------------------------

    bool blocked() const { return _blocked; }
    bool blockedOnPop() const { return _blockedIsPop; }
    int blockedPort() const { return _blockedPort; }

    /** Commit the stuck pop with @p value (QM timeout). */
    void resolveBlockedPop(Word value);

    /** Commit the stuck push, dropping its item (QM timeout). */
    void resolveBlockedPush();

    // ------------------------------------------------------------------
    // Services for backends.
    // ------------------------------------------------------------------

    /**
     * Charge @p insts virtual instructions during which @p queue's
     * management state is register-resident (software queue routines).
     * Scheduled errors in the window corrupt the queue or the register
     * file with equal probability.
     */
    void exposeQueueWindow(Count insts, QueueBase &queue);

    /** Charge raw cycles (frame-boundary serialization, ...). */
    void addCycles(Cycle cycles) { _counters.cycles += cycles; }

    /** Charge the memory-subsystem cost of one queue word transfer. */
    void
    chargeQueueTransfer()
    {
        _counters.cycles += _timing.queueOpCycles;
    }

    /**
     * Charge @p insts instructions of *reliable* protection-runtime
     * work (checksum updates, output voting): counted and cycled like
     * committed work so overhead comparisons see it, but never exposed
     * to error injection and never charged against the PPU scope
     * budget — it runs on the reliable substrate, not inside the
     * error-prone scope.
     */
    void
    chargeReliableOps(Count insts)
    {
        _counters.committedInsts += insts;
        _counters.cycles += insts;
    }

    /**
     * Record (address, old value) for every store of an invocation so
     * a replicating backend can roll the memory image back before a
     * replay. Off by default: the journal append sits on the
     * interpreter's store path.
     */
    void setStoreJournaling(bool enabled)
    {
        _journalStores = enabled;
    }

    /**
     * Undo this invocation's stores in reverse order and clear the
     * journal. No-op unless journaling is enabled.
     */
    void rollbackInvocationStores();

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    CoreId id() const { return _id; }
    const std::string &name() const { return _name; }
    RegisterFile &regs() { return _regs; }
    std::vector<Word> &memory() { return _memory; }
    ErrorInjector &injector() { return _injector; }
    CoreCounters &counters() { return _counters; }
    const CoreCounters &counters() const { return _counters; }
    Cycle cycles() const { return _counters.cycles; }
    Count pc() const { return _pc; }
    const isa::Program &program() const { return _program; }

    /** Flip a random bit of a random live architectural register. */
    void flipRandomRegisterBit();

    /** Registers the loaded program references (injection targets). */
    const std::vector<isa::Reg> &usedRegs() const { return _usedRegs; }

  private:
    /**
     * Count @p n commits: instructions, the per-invocation count and
     * the error countdown, and one cycle each plus @p extra_cycles. If
     * that spends the countdown, run the error sync. The only
     * definition of counting: run() folds each straight-line run
     * through it once, whether or not a trace sink is attached, and
     * commit() is its one-instruction case.
     */
    void fold(Count n, Cycle extra_cycles);

    /**
     * Commit the instruction at _pc: move _pc to @p next_pc, then fold
     * one instruction. Run-ending instructions and the QM timeout
     * paths go through it.
     */
    void commit(Cycle extra_cycles, Count next_pc);

    /**
     * The instsThisInvocation at which a watchdog next trips: the
     * smaller of the invocation budget and the innermost tracked
     * scope's deadline.
     */
    Count watchdogLimit() const;

    /**
     * Fast-path bookkeeping for scheduled errors: the cached integer
     * countdown hit zero, so exactly _errorCountdownReload commits
     * have elapsed since the last injector sync. Push them into the
     * injector (firing the due flips) and recache the countdown.
     */
    void syncScheduledErrors();

    /** Recache the injector's integer countdown. */
    void reloadErrorCountdown()
    {
        _errorCountdown = _errorCountdownReload = _injector.countdown();
    }

    CoreId _id;
    std::string _name;

    isa::Program _program;
    RecyclePool<Word> *_memoryPool = nullptr;  //!< Not owned; may be null.
    std::vector<Word> _memory;
    RegisterFile _regs;
    ErrorInjector _injector;
    TimingConfig _timing;
    PpuConfig _ppu;
    CommBackend *_backend = nullptr;
    TraceSink *_trace = nullptr;

    /**
     * Registers referenced by the loaded program (excluding the
     * hardwired R0). The error injector targets only these: the
     * paper's x86 cores have a small register file that is essentially
     * fully live, and flipping architecturally dead registers would
     * artificially dilute the modeled error rate.
     */
    std::vector<isa::Reg> _usedRegs;

    /** One tracked nested scope activation. */
    struct ScopeFrame
    {
        Word id;         //!< Scope table index (matches ScopeExit).
        std::int32_t exitPc;
        Count deadline;  //!< instsThisInvocation limit.
    };

    Count _pc = 0;
    Count _instsThisInvocation = 0;
    Count _scopeBudget = 0;

    /**
     * Commits left before the injector must be resynced (see
     * ErrorInjector::countdown()). The pair of counters replaces a
     * per-commit floating-point advance with one predictable integer
     * decrement on the interpreter's hot path.
     */
    Count _errorCountdown = ErrorInjector::noErrorScheduled;
    Count _errorCountdownReload = ErrorInjector::noErrorScheduled;
    std::vector<ScopeFrame> _scopeStack;

    bool _blocked = false;
    bool _blockedIsPop = false;
    int _blockedPort = 0;

    /** Store journal for replication rollback (see setStoreJournaling). */
    bool _journalStores = false;
    std::vector<std::pair<std::uint32_t, Word>> _storeJournal;

    CoreCounters _counters;
};

} // namespace commguard

#endif // COMMGUARD_MACHINE_CORE_HH
