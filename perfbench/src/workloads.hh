/**
 * @file
 * The benchmark's workloads, the runs each one makes for a seed, and
 * the per-run output digests they are checked against.
 *
 * A workload is a list of cells (app x protection mode x injection
 * setting). An injected cell draws its error-injection seeds from a
 * fixed pool of kSeedPool seed indices; the benchmark's --seed picks
 * seedsPerCell of them per cell. Every run a seed can select therefore
 * has a reference digest in perfbench/ref/<workload>.txt, recorded by
 * --regenerate.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "sim/experiment.hh"
#include "streamit/loader.hh"

namespace perfbench
{

/** Seed indices an injected cell's draws choose from. */
constexpr int kSeedPool = 8;

/** Telemetry sampling period (scheduler rounds) on export workloads. */
constexpr commguard::Count kTelemetrySlices = 64;

/** One app of a workload: its factory call, made at set-up. */
struct AppFactory
{
    std::string label;  //!< e.g. "complex-fir(4096)".
    std::function<commguard::apps::App()> make;
};

/** One configuration a workload runs under each selected seed. */
struct Cell
{
    int app = 0;           //!< Index into Workload::apps.
    std::string mode;      //!< Registered protection-mode name.
    bool inject = true;
    double mtbe = 0.0;     //!< Ignored when !inject.
};

struct Workload
{
    std::string name;
    unsigned jobs = 1;     //!< SweepRunner width.
    std::vector<AppFactory> apps;
    std::vector<Cell> cells;
    int seedsPerCell = 1;  //!< Seeds drawn per injected cell.
    bool exports = false;  //!< JSONL, telemetry and event-trace export.
};

/** One run: a cell under one seed index (0 for error-free cells). */
struct RunKey
{
    int cell = 0;
    int seedIndex = 0;
};

const std::vector<Workload> &allWorkloads();

/** The workload called @p name; nullptr if none. */
const Workload *findWorkload(const std::string &name);

/** The runs of one pass for benchmark seed @p seed, in order. */
std::vector<RunKey> passKeys(const Workload &workload, std::uint64_t seed);

/** Every run any seed can select (the reference-digest set). */
std::vector<RunKey> poolKeys(const Workload &workload);

/** Reference-file key, e.g. "complex-fir(4096)|commguard|64000|3". */
std::string keyText(const Workload &workload, const RunKey &key);

/** Loader options of @p key (mode, injection, seed, export knobs). */
commguard::streamit::LoadOptions loadOptions(const Workload &workload,
                                             const RunKey &key);

/**
 * FNV-1a digest (16 hex digits) over the run's output words, its
 * completed flag, the bits of qualityDb and the canonical snapshot JSON.
 */
std::string runDigest(const commguard::sim::RunOutcome &outcome);

/** key -> digest; empty if @p path cannot be read. */
std::map<std::string, std::string> readDigests(const std::string &path);

/** Write one "key digest" line per entry; false on I/O failure. */
bool writeDigests(const std::string &path,
                  const std::map<std::string, std::string> &digests);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH
