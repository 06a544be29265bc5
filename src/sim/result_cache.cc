#include "sim/result_cache.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <system_error>
#include <unistd.h>
#include <utility>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/run_codec.hh"

namespace commguard::sim
{

ResultCache::ResultCache(std::string directory)
    : _directory(std::move(directory))
{
}

std::string
ResultCache::keyFor(const RunDescriptor &descriptor)
{
    std::string preimage = descriptorJson(descriptor).dump();
    preimage += '\n';
    preimage += std::to_string(metrics::kSchemaVersion);
    preimage += '\n';
    preimage += buildStamp();
    return fnv1a64Hex(preimage);
}

bool
ResultCache::lookup(const RunDescriptor &descriptor, ExecutedRun *out)
{
    const std::string path =
        _directory + "/" + keyFor(descriptor) + ".json";
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        stats().misses.fetch_add(1, std::memory_order_relaxed);
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();

    // Anything structurally wrong from here on counts as `invalid`:
    // the entry exists but cannot be trusted, so it degrades to a
    // miss and the run executes normally (overwriting the entry).
    const auto reject = [&](const std::string &why) {
        warn("result_cache: ignoring entry '" + path + "': " + why);
        stats().invalid.fetch_add(1, std::memory_order_relaxed);
        stats().misses.fetch_add(1, std::memory_order_relaxed);
        return false;
    };

    Json entry;
    std::string error;
    if (!Json::parse(text.str(), entry, &error) || !entry.isObject())
        return reject("unparseable: " + error);

    const Json *schema = entry.find("schema_version");
    if (schema == nullptr || !schema->isNumber() ||
        schema->counter() != Count{metrics::kSchemaVersion})
        return reject("schema version mismatch");

    // Collision guard: the stored descriptor must be byte-equal to
    // the requested one, not merely hash-equal.
    const Json *stored = entry.find("descriptor");
    if (stored == nullptr ||
        stored->dump() != descriptorJson(descriptor).dump())
        return reject("descriptor mismatch");

    const Json *record = entry.find("record");
    const Json *output = entry.find("output");
    if (record == nullptr || !record->isObject() ||
        output == nullptr || !output->isString())
        return reject("missing record/output");

    std::vector<Word> words;
    if (!decodeWords(output->str(), &words))
        return reject("corrupt output encoding");

    try {
        out->outcome = outcomeFromRecord(*record, std::move(words));
    } catch (const std::exception &e) {
        return reject(std::string("corrupt record: ") + e.what());
    }
    out->recordLine = record->dump();
    out->traceDoc.clear();
    out->telemetryChunk.clear();
    stats().hits.fetch_add(1, std::memory_order_relaxed);
    return true;
}

void
ResultCache::store(const RunDescriptor &descriptor,
                   const ExecutedRun &run)
{
    Json record;
    std::string error;
    if (!Json::parse(run.recordLine, record, &error)) {
        warn("result_cache: run record unparseable, not storing: " +
             error);
        return;
    }

    Json entry = Json::object();
    entry["descriptor"] = descriptorJson(descriptor);
    entry["output"] = Json(encodeWords(run.outcome.output));
    entry["record"] = std::move(record);
    entry["schema_version"] = Json(metrics::kSchemaVersion);

    const std::string path =
        _directory + "/" + keyFor(descriptor) + ".json";
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream outFile(tmp, std::ios::binary | std::ios::trunc);
        if (!outFile) {
            warn("result_cache: cannot write '" + tmp + "'");
            return;
        }
        entry.write(outFile);
        outFile << '\n';
        if (!outFile) {
            warn("result_cache: short write to '" + tmp + "'");
            outFile.close();
            std::remove(tmp.c_str());
            return;
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        warn("result_cache: cannot publish '" + path + "'");
        std::remove(tmp.c_str());
        return;
    }
    stats().stores.fetch_add(1, std::memory_order_relaxed);
}

Count
ResultCache::sweepOrphans(double grace_seconds)
{
    namespace fs = std::filesystem;
    // A store() temp file is "<16 hex>.json.tmp.<pid>"; anything
    // matching "*.tmp.*" in the cache directory is ours. The grace
    // window keeps temp files a live concurrent writer is still
    // filling; an orphan's mtime only ever gets older.
    Count swept = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    const auto grace = std::chrono::duration_cast<
        fs::file_time_type::duration>(
        std::chrono::duration<double>(grace_seconds));
    for (const fs::directory_entry &entry :
         fs::directory_iterator(_directory, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec))
            continue;
        const std::string name = entry.path().filename().string();
        const std::size_t tmp_at = name.find(".tmp.");
        if (tmp_at == std::string::npos ||
            tmp_at + 5 >= name.size())
            continue;
        const auto mtime = entry.last_write_time(ec);
        if (ec || now - mtime < grace)
            continue;
        if (fs::remove(entry.path(), ec) && !ec)
            ++swept;
    }
    if (swept > 0) {
        stats().orphansSwept.fetch_add(swept,
                                       std::memory_order_relaxed);
        inform("result_cache: swept " + std::to_string(swept) +
               " orphaned temp file(s) from '" + _directory + "'");
    }
    return swept;
}

ResultCacheStats &
ResultCache::stats()
{
    static ResultCacheStats instance;
    return instance;
}

ResultCache *
ResultCache::process()
{
    static ResultCache *instance = []() -> ResultCache * {
        const char *dir = std::getenv("CG_CACHE_DIR");
        if (dir == nullptr || *dir == '\0')
            return nullptr;
        auto *cache = new ResultCache(dir);
        // Writers killed mid-store() (a ^C'd or fatal()ed sweep)
        // leave "<key>.json.tmp.<pid>" files behind forever;
        // reclaim stale ones whenever the shared cache opens.
        cache->sweepOrphans();
        return cache;
    }();
    return instance;
}

bool
runCacheable(const RunDescriptor &descriptor)
{
    return !descriptor.app->spec.empty() &&
           !descriptor.options.machine.traceEvents &&
           descriptor.options.machine.telemetrySlices == 0;
}

} // namespace commguard::sim
