/**
 * @file
 * Content-addressed on-disk cache of sweep run results.
 *
 * Point CG_CACHE_DIR at a directory and every cacheable run the sweep
 * engine executes is stored there; re-running the same sweep (same
 * descriptors, same metric schema, same build) replays results from
 * disk instead of simulating. The merged artifact bytes are identical
 * either way — a warm rerun is `cmp`-equal to the cold run, which
 * scripts/check.sh gates on.
 *
 * Key = FNV-1a 64 over the canonical descriptor JSON bytes, the
 * metric schema version, and the build stamp — a hash of the running
 * executable (docs/RESULT_CACHE.md defines the exact preimage). A
 * rebuilt binary therefore never replays another build's results.
 * Entries self-describe: each stores the full descriptor JSON it was
 * keyed from, and lookup() re-compares it against the request, so
 * even a 64-bit hash collision degrades to a miss rather than a wrong
 * result.
 *
 * Entry format (one canonical-JSON document per file, named
 * <key>.json): {"descriptor": ..., "output": "<hex words>",
 * "record": {<runRecordJson object>}, "schema_version": N}. Stores
 * write to a temp file and rename() into place, so concurrent sweeps
 * sharing a directory see only complete entries.
 */

#ifndef COMMGUARD_SIM_RESULT_CACHE_HH
#define COMMGUARD_SIM_RESULT_CACHE_HH

#include <atomic>
#include <string>

#include "sim/experiment.hh"

namespace commguard::sim
{

/** Process-wide cache traffic counters (sweep health board). */
struct ResultCacheStats
{
    std::atomic<Count> hits{0};     //!< lookup() served from disk.
    std::atomic<Count> misses{0};   //!< No (valid) entry on disk.
    std::atomic<Count> stores{0};   //!< Entries written.
    std::atomic<Count> invalid{0};  //!< Entries rejected on lookup.
    std::atomic<Count> orphansSwept{0}; //!< Stale *.tmp.* deleted.
};

/** A directory of cached run results. Thread-safe (stateless aside
 *  from the shared stats; the filesystem provides atomicity). */
class ResultCache
{
  public:
    explicit ResultCache(std::string directory);

    /**
     * The content address of @p descriptor: 16 lowercase hex digits of
     * FNV-1a 64 over descriptorJson(descriptor).dump() + "\n" +
     * metrics::kSchemaVersion + "\n" + buildStamp(). fatal() when the
     * app carries no App::spec.
     */
    static std::string keyFor(const RunDescriptor &descriptor);

    /**
     * Replay the cached result of @p descriptor into @p out (outcome +
     * recordLine; cacheable runs have no trace/telemetry artifacts).
     * False on a missing, unreadable, mismatched or malformed entry —
     * the caller executes the run as if the cache did not exist.
     */
    bool lookup(const RunDescriptor &descriptor, ExecutedRun *out);

    /**
     * Persist an executed run. @p recordLine must be the run's
     * runRecordJson(...).dump() bytes; replaying the entry hands the
     * very same bytes back, keeping JSONL output independent of
     * hit/miss history. Failures warn and drop the entry (the cache
     * is an accelerator, never a correctness dependency).
     */
    void store(const RunDescriptor &descriptor,
               const ExecutedRun &run);

    const std::string &directory() const { return _directory; }

    /**
     * Delete orphaned temp files (`<key>.json.tmp.<pid>`) left behind
     * by writers killed mid-store(), e.g. a sweep interrupted between
     * the temp write and the rename. Only files whose mtime is at
     * least @p grace_seconds old are removed, so temp files of live
     * concurrent writers survive. Returns the number deleted (also
     * added to stats().orphansSwept). Called automatically when the
     * process() singleton opens.
     */
    Count sweepOrphans(double grace_seconds = 60.0);

    /** Counters shared by every ResultCache in the process. */
    static ResultCacheStats &stats();

    /**
     * The process cache configured by CG_CACHE_DIR, or nullptr when
     * the variable is unset/empty. Constructed on first use; the tools
     * probe writability up front (exit 2 on an unusable directory).
     */
    static ResultCache *process();

  private:
    std::string _directory;
};

/**
 * Whether @p descriptor's result may be served from or stored to a
 * cache: the app must carry a spec (its identity inside the key) and
 * the run must carry no trace/telemetry request (those artifacts are
 * not cached, and serving a hit would silently drop them).
 */
bool runCacheable(const RunDescriptor &descriptor);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_RESULT_CACHE_HH
