/**
 * @file
 * Canonical encodings of runs for the on-disk result cache.
 *
 * Two consumers share these encodings (docs/RESULT_CACHE.md):
 *
 *  - the result cache (sim/result_cache.hh): the descriptor JSON is
 *    the content address — its bytes, plus the metric schema version
 *    and the build stamp, hash into the cache key — and an entry
 *    stores the run record plus the hex-encoded output stream;
 *  - ExperimentConfig::cacheKey(), the user-facing form of the same.
 *
 * The descriptor encoding covers exactly the LoadOptions fields that
 * can change a run's outcome. Observability knobs (event tracing,
 * telemetry sampling) are deliberately excluded: runs carrying them
 * are never cached (runCacheable()), because a trace or telemetry
 * ring cannot be replayed from a cache entry.
 *
 * STABILITY: descriptorJson() output is pinned by a golden-bytes test
 * (tests/experiment_config_test.cc). Any key change silently
 * invalidates every existing cache entry — change it only together
 * with that test and a schema-version discussion in
 * docs/RESULT_CACHE.md.
 */

#ifndef COMMGUARD_SIM_RUN_CODEC_HH
#define COMMGUARD_SIM_RUN_CODEC_HH

#include <string>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"

namespace commguard::sim
{

/**
 * Canonical JSON encoding of @p descriptor: the app recipe
 * (App::spec, parsed) plus every outcome-affecting LoadOptions and
 * MachineConfig field, with sorted keys so equal descriptors are
 * byte-equal. fatal() when the app carries no spec — callers gate on
 * runCacheable() first.
 */
Json descriptorJson(const RunDescriptor &descriptor);

/** Lowercase hex encoding of an output stream, 8 chars per word. */
std::string encodeWords(const std::vector<Word> &words);

/** Decode encodeWords() output; false on odd length or non-hex. */
bool decodeWords(const std::string &hex, std::vector<Word> *out);

/**
 * Rebuild a RunOutcome from its JSONL run record (runRecordJson
 * output — the snapshot round-trips exactly) plus the separately
 * stored output stream. The trace and telemetry handles are null by
 * construction: cacheable runs never carry them.
 */
RunOutcome outcomeFromRecord(const Json &record,
                             std::vector<Word> output);

/** FNV-1a 64 of @p bytes as 16 lowercase hex digits. */
std::string fnv1a64Hex(const std::string &bytes);

/**
 * fnv1a64Hex() of the contents of the file at @p path, streamed in
 * fixed-size chunks (executables run to tens of MB). fatal() when the
 * file cannot be read.
 */
std::string fnv1a64FileHex(const std::string &path);

/**
 * Build stamp of the running binary: fnv1a64FileHex() of the
 * executable (/proc/self/exe), hashed once on first use — so only
 * processes that consult the cache pay for it. Part of every cache
 * key, so entries written by any other build, even one where a single
 * unrelated translation unit changed, are never replayed.
 */
const std::string &buildStamp();

} // namespace commguard::sim

#endif // COMMGUARD_SIM_RUN_CODEC_HH
