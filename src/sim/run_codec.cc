#include "sim/run_codec.hh"

#include <cstdint>
#include <fstream>
#include <utility>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/protection.hh"

namespace commguard::sim
{

namespace
{

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;

/** Fold @p size bytes into the running FNV-1a 64 state @p hash. */
std::uint64_t
fnv1a64(std::uint64_t hash, const char *bytes, std::size_t size)
{
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= static_cast<unsigned char>(bytes[i]);
        hash *= 1099511628211ull;
    }
    return hash;
}

std::string
hex64(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex(16, '0');
    for (int i = 15; i >= 0; --i) {
        hex[static_cast<std::size_t>(i)] = digits[value & 0xF];
        value >>= 4;
    }
    return hex;
}

int
hexNibble(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    return -1;
}

} // namespace

Json
descriptorJson(const RunDescriptor &descriptor)
{
    const apps::App &app = *descriptor.app;
    if (app.spec.empty())
        fatal("descriptorJson: app '" + app.name +
              "' carries no spec (gate on runCacheable() first)");
    Json app_spec;
    std::string error;
    if (!Json::parse(app.spec, app_spec, &error))
        fatal("descriptorJson: unparseable App::spec '" + app.spec +
              "': " + error);

    const streamit::LoadOptions &o = descriptor.options;
    const MachineConfig &m = o.machine;

    Json per_node = Json::array();
    for (Count scale : o.perNodeFrameScale)
        per_node.push(Json(scale));

    Json per_core = Json::array();
    for (double m_core : o.perCoreMtbe)
        per_core.push(Json(m_core));

    Json timing = Json::object();
    timing["frame_flush_cycles"] = Json(Count{m.timing.frameFlushCycles});
    timing["mem_extra_cycles"] = Json(Count{m.timing.memExtraCycles});
    timing["queue_op_cycles"] = Json(Count{m.timing.queueOpCycles});

    Json ppu = Json::object();
    ppu["default_scope_budget"] = Json(m.ppu.defaultScopeBudget);
    ppu["enforce_nested_scopes"] = Json(m.ppu.enforceNestedScopes);
    ppu["max_scope_budget"] = Json(m.ppu.maxScopeBudget);
    ppu["max_scope_depth"] =
        Json(static_cast<std::int64_t>(m.ppu.maxScopeDepth));
    ppu["watchdog_multiplier"] = Json(m.ppu.watchdogMultiplier);

    Json machine = Json::object();
    machine["global_watchdog_insts"] = Json(m.globalWatchdogInsts);
    machine["ppu"] = std::move(ppu);
    machine["slice_instructions"] = Json(m.sliceInstructions);
    machine["timeout_rounds"] = Json(m.timeoutRounds);
    machine["timing"] = std::move(timing);

    Json json = Json::object();
    json["app"] = Json(app.name);
    json["app_spec"] = std::move(app_spec);
    json["flip_all_registers"] = Json(o.flipAllRegisters);
    json["frame_aligned_output"] = Json(o.frameAlignedOutput);
    json["frame_scale"] = Json(o.frameScale);
    json["guard_source_edge"] = Json(o.guardSourceEdge);
    json["inject_errors"] = Json(o.injectErrors);
    json["machine"] = std::move(machine);
    json["mtbe"] = Json(o.mtbe);
    json["per_core_mtbe"] = std::move(per_core);
    json["per_node_frame_scale"] = std::move(per_node);
    json["protection_mode"] = Json(protection::protectionModeName(o.mode));
    json["queue_capacity_words"] = Json(Count{o.queueCapacityWords});
    json["replicas"] = Json(static_cast<std::int64_t>(o.replicas));
    json["seed"] = Json(Count{o.seed});
    return json;
}

std::string
encodeWords(const std::vector<Word> &words)
{
    static const char digits[] = "0123456789abcdef";
    std::string hex;
    hex.reserve(words.size() * 8);
    for (Word word : words)
        for (int shift = 28; shift >= 0; shift -= 4)
            hex.push_back(digits[(word >> shift) & 0xF]);
    return hex;
}

bool
decodeWords(const std::string &hex, std::vector<Word> *out)
{
    if (hex.size() % 8 != 0)
        return false;
    out->clear();
    out->reserve(hex.size() / 8);
    for (std::size_t i = 0; i < hex.size(); i += 8) {
        Word word = 0;
        for (std::size_t j = 0; j < 8; ++j) {
            const int nibble = hexNibble(hex[i + j]);
            if (nibble < 0)
                return false;
            word = (word << 4) | static_cast<Word>(nibble);
        }
        out->push_back(word);
    }
    return true;
}

RunOutcome
outcomeFromRecord(const Json &record, std::vector<Word> output)
{
    RunOutcome outcome;
    outcome.snapshot = metrics::snapshotFromJson(record);
    outcome.completed = outcome.snapshot.get("run/completed") != 0;
    outcome.qualityDb = outcome.snapshot.gauge("run/qualityDb");
    outcome.output = std::move(output);
    return outcome;
}

std::string
fnv1a64Hex(const std::string &bytes)
{
    return hex64(fnv1a64(kFnvOffsetBasis, bytes.data(), bytes.size()));
}

std::string
fnv1a64FileHex(const std::string &path)
{
    std::ifstream file(path, std::ios::binary);
    std::vector<char> chunk(std::size_t{1} << 16);
    std::uint64_t hash = kFnvOffsetBasis;
    while (file.read(chunk.data(),
                     static_cast<std::streamsize>(chunk.size())) ||
           file.gcount() > 0) {
        hash = fnv1a64(hash, chunk.data(),
                       static_cast<std::size_t>(file.gcount()));
    }
    if (!file.eof())
        fatal("run_codec: cannot read '" + path + "' to hash it");
    return hex64(hash);
}

const std::string &
buildStamp()
{
    static const std::string stamp = fnv1a64FileHex("/proc/self/exe");
    return stamp;
}

} // namespace commguard::sim
