#include "workloads.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <numeric>
#include <sstream>

#include "common/json.hh"
#include "common/metrics.hh"
#include "sim/protection.hh"
#include "sim/sweep_runner.hh"

namespace perfbench
{

using namespace commguard;

namespace
{

/** Cells of @p apps under one mode at each MTBE of @p mtbes. */
std::vector<Cell>
mtbeCells(std::size_t apps, const std::string &mode,
          const std::vector<Count> &mtbes)
{
    std::vector<Cell> cells;
    for (std::size_t app = 0; app < apps; ++app)
        for (Count mtbe : mtbes)
            cells.push_back({static_cast<int>(app), mode, true,
                             static_cast<double>(mtbe)});
    return cells;
}

std::vector<Workload>
buildWorkloads()
{
    std::vector<Workload> all;

    // ECC and alignment-manager bound: 25-29 ECC ops per 1k insts.
    Workload hdr;
    hdr.name = "hdr_heavy";
    hdr.apps = {
        {"audiobeamformer(4096)",
         [] { return apps::makeBeamformerApp(4096); }},
        {"channelvocoder(4096)",
         [] { return apps::makeChannelVocoderApp(4096); }},
        {"complex-fir(6144)",
         [] { return apps::makeComplexFirApp(6144); }},
    };
    // Both ends and the middle of the MTBE axis: a short pass, so each
    // run repeats often within --seconds (see quietMs in main.cc).
    hdr.cells = mtbeCells(hdr.apps.size(), "commguard",
                          {64'000, 512'000, 8'192'000});
    all.push_back(hdr);

    // Interpreter bound: under 2 ECC ops per 1k insts.
    Workload jpeg;
    jpeg.name = "jpeg_interp";
    jpeg.apps = {
        {"jpeg(128x96)", [] { return apps::makeJpegApp(128, 96, 50); }},
        {"mp3(8192)", [] { return apps::makeMp3App(8192); }},
    };
    jpeg.cells = mtbeCells(jpeg.apps.size(), "commguard", sim::mtbeAxis());
    all.push_back(jpeg);

    // Every protection backend on one app, through the parallel path.
    // Input sizes give each mode's runs about the same host time, so
    // each backend weighs alike and run latency has no gaps between
    // mode clusters.
    Workload mix;
    mix.name = "mode_mix";
    mix.jobs = 2;
    mix.seedsPerCell = 2;
    const std::vector<std::pair<std::string, int>> mode_samples = {
        {"raw", 12288},      {"reliable-queue", 12288},
        {"commguard", 4096}, {"replicate", 6144},
        {"abft", 2048}};
    for (const auto &[mode, samples] : mode_samples) {
        const int app = static_cast<int>(mix.apps.size());
        mix.apps.push_back(
            {"complex-fir(" + std::to_string(samples) + ")",
             [samples = samples] {
                 return apps::makeComplexFirApp(samples);
             }});
        mix.cells.push_back({app, mode, false, 0.0});
        mix.cells.push_back({app, mode, true, 64'000.0});
        mix.cells.push_back({app, mode, true, 512'000.0});
    }
    all.push_back(mix);

    // Export bound: run JSONL, telemetry stream and Perfetto traces on.
    Workload traced;
    traced.name = "traced_export";
    traced.exports = true;
    traced.seedsPerCell = 1;
    traced.apps = {{"complex-fir(128)",
                    [] { return apps::makeComplexFirApp(128); }}};
    for (Count mtbe : {64'000, 256'000, 1'024'000, 4'096'000})
        traced.cells.push_back(
            {0, "commguard", true, static_cast<double>(mtbe)});
    all.push_back(traced);

    return all;
}

/** splitmix64: a portable, fully specified 64-bit mixer. */
std::uint64_t
splitmix64(std::uint64_t &state)
{
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void
fnv(std::uint64_t &hash, const void *data, std::size_t size)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= 0x100000001b3ull;
    }
}

} // namespace

const std::vector<Workload> &
allWorkloads()
{
    static const std::vector<Workload> workloads = buildWorkloads();
    return workloads;
}

const Workload *
findWorkload(const std::string &name)
{
    for (const Workload &workload : allWorkloads())
        if (workload.name == name)
            return &workload;
    return nullptr;
}

std::vector<RunKey>
passKeys(const Workload &workload, std::uint64_t seed)
{
    std::vector<RunKey> keys;
    for (std::size_t c = 0; c < workload.cells.size(); ++c) {
        if (!workload.cells[c].inject) {
            keys.push_back({static_cast<int>(c), 0});
            continue;
        }
        // Partial Fisher-Yates draw of seedsPerCell distinct indices.
        std::uint64_t state = seed * 0x100000001b3ull + c;
        std::vector<int> pool(kSeedPool);
        std::iota(pool.begin(), pool.end(), 0);
        for (int i = 0; i < workload.seedsPerCell; ++i) {
            const std::size_t j =
                i + splitmix64(state) % (pool.size() - i);
            std::swap(pool[i], pool[j]);
            keys.push_back({static_cast<int>(c), pool[i]});
        }
    }
    return keys;
}

std::vector<RunKey>
poolKeys(const Workload &workload)
{
    std::vector<RunKey> keys;
    for (std::size_t c = 0; c < workload.cells.size(); ++c) {
        const int seeds =
            workload.cells[c].inject ? kSeedPool : 1;
        for (int s = 0; s < seeds; ++s)
            keys.push_back({static_cast<int>(c), s});
    }
    return keys;
}

std::string
keyText(const Workload &workload, const RunKey &key)
{
    const Cell &cell = workload.cells[key.cell];
    std::ostringstream text;
    text << workload.apps[cell.app].label << '|' << cell.mode << '|';
    if (cell.inject)
        text << static_cast<Count>(cell.mtbe);
    else
        text << "error-free";
    text << '|' << key.seedIndex;
    return text.str();
}

streamit::LoadOptions
loadOptions(const Workload &workload, const RunKey &key)
{
    const Cell &cell = workload.cells[key.cell];
    streamit::LoadOptions options = sim::sweepOptions(
        protection::parseProtectionMode(cell.mode), cell.inject,
        cell.inject ? cell.mtbe : 1e6, key.seedIndex);
    if (workload.exports) {
        options.machine.traceEvents = true;
        options.machine.telemetrySlices = kTelemetrySlices;
    }
    return options;
}

std::string
runDigest(const sim::RunOutcome &outcome)
{
    std::uint64_t hash = 0xcbf29ce484222325ull;
    fnv(hash, outcome.output.data(),
        outcome.output.size() * sizeof(Word));
    const unsigned char completed = outcome.completed ? 1 : 0;
    fnv(hash, &completed, 1);
    std::uint64_t quality_bits = 0;
    std::memcpy(&quality_bits, &outcome.qualityDb, sizeof quality_bits);
    fnv(hash, &quality_bits, sizeof quality_bits);
    const std::string snapshot =
        metrics::snapshotToJson(outcome.snapshot).dump();
    fnv(hash, snapshot.data(), snapshot.size());

    char text[17];
    std::snprintf(text, sizeof text, "%016llx",
                  static_cast<unsigned long long>(hash));
    return text;
}

std::map<std::string, std::string>
readDigests(const std::string &path)
{
    std::map<std::string, std::string> digests;
    std::ifstream in(path);
    std::string key;
    std::string digest;
    while (in >> key >> digest)
        digests[key] = digest;
    return digests;
}

bool
writeDigests(const std::string &path,
             const std::map<std::string, std::string> &digests)
{
    std::ofstream out(path);
    for (const auto &[key, digest] : digests)
        out << key << ' ' << digest << '\n';
    return static_cast<bool>(out);
}

} // namespace perfbench
