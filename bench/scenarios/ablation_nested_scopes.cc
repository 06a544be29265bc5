/**
 * @file
 * Ablation: nested control-flow scopes (paper SS4.4).
 *
 * The PPU's guided execution management tracks potentially nested
 * scopes "at the granularity of function calls or loop nests". With
 * per-scope budgets, a corrupted inner loop is force-completed after
 * roughly one firing's worth of work instead of a whole frame
 * computation's, so far less garbage reaches the queues. This
 * scenario toggles nested-scope enforcement across the MTBE axis on
 * jpeg.
 */

#include <cstdio>
#include <iostream>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

struct Point
{
    double quality = 0.0;
    double loss = 0.0;
};

Point
measure(sim::ScenarioContext &ctx, const apps::App &app, Count mtbe,
        bool scopes)
{
    Point point;
    MachineConfig machine;
    machine.ppu.enforceNestedScopes = scopes;
    std::vector<sim::RunDescriptor> descriptors;
    for (int seed = 0; seed < ctx.seeds(); ++seed) {
        descriptors.push_back(
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .mtbe(static_cast<double>(mtbe))
                .seedIndex(seed)
                .machine(machine)
                .descriptor());
    }
    for (const sim::RunOutcome &outcome : ctx.runSweep(descriptors)) {
        point.quality += outcome.qualityDb;
        point.loss += outcome.dataLossRatio();
    }
    point.quality /= ctx.seeds();
    point.loss /= ctx.seeds();
    return point;
}

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Ablation: nested scopes (paper SS4.4) on jpeg "
                 "===\n\n";

    const apps::App app = apps::makeJpegApp();
    sim::Table table({"MTBE", "PSNR w/ scopes", "PSNR w/o",
                      "loss w/ scopes", "loss w/o"});

    for (Count mtbe : ctx.mtbeAxis()) {
        const Point with_scopes = measure(ctx, app, mtbe, true);
        const Point without = measure(ctx, app, mtbe, false);
        char with_loss[32];
        char without_loss[32];
        std::snprintf(with_loss, sizeof(with_loss), "%.2e",
                      with_scopes.loss);
        std::snprintf(without_loss, sizeof(without_loss), "%.2e",
                      without.loss);
        table.addRow({std::to_string(mtbe / 1000) + "k",
                      sim::fmt(with_scopes.quality, 1),
                      sim::fmt(without.quality, 1), with_loss,
                      without_loss});
    }

    ctx.publishTable("ablation_nested_scopes", table);
    std::cout << "\nExpected: per-firing scope budgets cut corrupted "
                 "loops sooner, reducing data loss and improving "
                 "quality at every error rate.\n";
}

const sim::ScenarioRegistrar registrar({
    "ablation_nested_scopes",
    "per-firing nested-scope budgets vs invocation-only protection",
    "Paper §4.4",
    {"ablation", "quality"},
    runScenario,
});

} // namespace
