/**
 * @file
 * Sweep-engine throughput scenario: runs a fig09-style jpeg quality
 * sweep (MTBE axis x seeds, CommGuard mode) across a jobs = 1,2,4,8
 * axis through the parallel SweepRunner, verifies every job count
 * produces bitwise-identical outcomes, and reports the full speedup
 * curve plus aggregate simulated MIPS and the pool's scheduling
 * counters (indices stolen, idle wakeups — see docs/METRICS.md,
 * "pool/").
 *
 * A warmup sweep runs first and is discarded: the very first sweep of
 * a process pays one-time costs (page faults, allocator warmup, lazy
 * statics) that would otherwise be billed entirely to the jobs=1
 * point and inflate the apparent speedup.
 *
 * Machine-readable results are written to BENCH_sweep.json in the
 * working directory (schema-versioned, via sim::writeBenchJson) so
 * later changes can track the perf trajectory. Alongside the curve it
 * records "host_cpus": on a box with fewer cores than jobs the
 * wall-clock speedup is bounded by the hardware, not the engine —
 * scripts/check.sh gates on the jobs=4 point only when the host can
 * physically express it.
 *
 * CG_QUICK=1 shrinks the sweep for smoke runs.
 */

#include <chrono>
#include <cstring>
#include <iostream>
#include <thread>

#include "apps/app.hh"
#include "common/logging.hh"
#include "sim/experiment_config.hh"
#include "sim/run_export.hh"
#include "sim/scenario.hh"
#include "sim/sweep_runner.hh"

using namespace commguard;

namespace
{

double
wallSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

std::vector<sim::RunDescriptor>
fig09StyleSweep(sim::ScenarioContext &ctx, const apps::App &app)
{
    std::vector<sim::RunDescriptor> descriptors;
    for (Count mtbe : ctx.mtbeAxis()) {
        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            descriptors.push_back(
                sim::ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .mtbe(static_cast<double>(mtbe))
                    .seedIndex(seed)
                    .descriptor());
        }
    }
    return descriptors;
}

struct SweepResult
{
    std::vector<sim::RunOutcome> outcomes;
    double wallSecs = 0.0;
    Count simulatedInsts = 0;
    ThreadPool::Stats pool;
};

SweepResult
timedSweep(const std::vector<sim::RunDescriptor> &descriptors,
           unsigned jobs)
{
    sim::SweepRunner runner(jobs);
    for (const sim::RunDescriptor &descriptor : descriptors)
        runner.enqueue(descriptor);

    SweepResult result;
    const double start = wallSeconds();
    result.outcomes = runner.runAll();
    result.wallSecs = wallSeconds() - start;
    result.pool = runner.poolStats();
    for (const sim::RunOutcome &outcome : result.outcomes)
        result.simulatedInsts += outcome.totalInstructions();
    return result;
}

/** Bitwise comparison of the observables the figures consume. */
bool
identicalOutcomes(const std::vector<sim::RunOutcome> &a,
                  const std::vector<sim::RunOutcome> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (std::memcmp(&a[i].qualityDb, &b[i].qualityDb,
                        sizeof(double)) != 0 ||
            !(a[i].snapshot == b[i].snapshot) ||
            a[i].completed != b[i].completed ||
            a[i].output != b[i].output) {
            return false;
        }
    }
    return true;
}

void
runScenario(sim::ScenarioContext &ctx)
{
    const apps::App app = ctx.quick() ? apps::makeJpegApp(128, 96, 50)
                                      : apps::makeJpegApp();
    const std::vector<sim::RunDescriptor> descriptors =
        fig09StyleSweep(ctx, app);
    const std::vector<unsigned> jobs_axis = {1, 2, 4, 8};
    const unsigned host_cpus =
        std::max(1u, std::thread::hardware_concurrency());

    std::cout << "=== Sweep engine throughput (fig09-style jpeg "
                 "sweep, "
              << descriptors.size() << " runs, host_cpus="
              << host_cpus << ") ===\n\n";

    // Warmup: the process's first sweep pays one-time costs (page
    // faults, allocator warmup, lazy statics) that must not be billed
    // to whichever axis point happens to run first.
    (void)timedSweep(descriptors, 1);

    std::vector<SweepResult> results;
    results.reserve(jobs_axis.size());
    for (unsigned jobs : jobs_axis)
        results.push_back(timedSweep(descriptors, jobs));

    const SweepResult &baseline = results.front();
    for (std::size_t j = 1; j < results.size(); ++j) {
        if (!identicalOutcomes(baseline.outcomes,
                               results[j].outcomes)) {
            fatal("micro_sweep_throughput: jobs=" +
                  std::to_string(jobs_axis[j]) +
                  " outcomes differ from the jobs=1 baseline");
        }
    }

    auto speedup_at = [&](std::size_t j) {
        return results[j].wallSecs > 0.0
                   ? baseline.wallSecs / results[j].wallSecs
                   : 0.0;
    };
    auto mips_at = [&](std::size_t j) {
        return results[j].wallSecs > 0.0
                   ? static_cast<double>(results[j].simulatedInsts) /
                         results[j].wallSecs / 1e6
                   : 0.0;
    };

    sim::Table table({"jobs", "wall (s)", "simulated MIPS", "speedup",
                      "stolen", "idle wakeups"});
    for (std::size_t j = 0; j < results.size(); ++j) {
        table.addRow({std::to_string(jobs_axis[j]),
                      sim::fmt(results[j].wallSecs, 2),
                      sim::fmt(mips_at(j), 1),
                      sim::fmt(speedup_at(j), 2),
                      std::to_string(results[j].pool.tasksStolen),
                      std::to_string(results[j].pool.idleWakeups)});
    }
    ctx.publishTable("micro_sweep_throughput", table);

    std::cout << "\noutcomes bitwise-identical across job counts: "
                 "yes\n";

    // jobs=4 is the axis point the perf gate tracks.
    const std::size_t j4 = 2;
    Json axis = Json::array();
    Json walls = Json::array();
    Json speedups = Json::array();
    for (std::size_t j = 0; j < results.size(); ++j) {
        axis.arr().emplace_back(static_cast<Count>(jobs_axis[j]));
        walls.arr().emplace_back(results[j].wallSecs);
        speedups.arr().emplace_back(speedup_at(j));
    }

    Json pool = Json::object();
    pool["batches_submitted"] =
        Json(results[j4].pool.batchesSubmitted);
    pool["tasks_stolen"] = Json(results[j4].pool.tasksStolen);
    pool["queue_waits"] = Json(results[j4].pool.queueWaits);
    pool["idle_wakeups"] = Json(results[j4].pool.idleWakeups);

    Json data = Json::object();
    data["simulated_mips"] = Json(mips_at(j4));
    data["jobs_axis"] = axis;
    data["wall_seconds_curve"] = walls;
    data["speedup_curve"] = speedups;
    data["speedup_jobs4"] = Json(speedup_at(j4));
    data["host_cpus"] = Json(static_cast<Count>(host_cpus));
    data["pool_jobs4"] = pool;
    sim::writeBenchJson("sweep", data);
    std::cout << "wrote BENCH_sweep.json\n";
}

const sim::ScenarioRegistrar registrar({
    "micro_sweep_throughput",
    "parallel sweep engine: jobs=1,2,4,8 speedup curve, simulated "
    "MIPS, pool scheduling counters, bitwise-identity check",
    "§6 methodology (engine perf)",
    {"micro", "perf"},
    runScenario,
});

} // namespace
