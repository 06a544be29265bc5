/**
 * @file
 * Telemetry soak scenario (docs/TELEMETRY.md): long error-injecting
 * complex-fir runs sampled on an aggressive cadence against a
 * deliberately tiny delta-ring, so the ring overflows thousands of
 * times. For every run the scenario re-proves the recorder contract
 * under sustained folding pressure:
 *
 *  - bounded memory: retained samples never exceed the ring capacity;
 *  - accounting: samples taken == samples dropped + samples retained;
 *  - exactly one final sample, and it is the last retained one;
 *  - conservation: base + retained deltas reconciles 1:1 with the
 *    run's MetricSnapshot for every sampled counter.
 *
 * Any violation is fatal after the table is published, so a soak
 * regression cannot pass silently. CG_QUICK=1 shrinks the app and the
 * sweep for smoke runs.
 */

#include <iostream>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/logging.hh"
#include "common/telemetry.hh"
#include "sim/experiment_config.hh"
#include "sim/scenario.hh"
#include "sim/table.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    // Sample every scheduler round into a ring far smaller than the
    // run's round count: almost every sample must be folded into the
    // base, which is exactly the regime the conservation identity has
    // to survive. The scheduling slice is shrunk far below its 50k
    // default so even the quick-mode app spans thousands of rounds —
    // rounds are the sampling clock.
    constexpr Count kSampleSlices = 1;
    constexpr std::size_t kRingCapacity = 64;
    MachineConfig machine;
    machine.sliceInstructions = 500;

    const apps::App app = ctx.quick() ? apps::makeComplexFirApp(2048)
                                      : apps::makeComplexFirApp();

    std::vector<sim::RunDescriptor> descriptors;
    std::vector<std::pair<Count, int>> coordinates;
    for (Count mtbe : ctx.mtbeAxis()) {
        for (int seed = 0; seed < ctx.seeds(); ++seed) {
            descriptors.push_back(
                sim::ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .mtbe(static_cast<double>(mtbe))
                    .seedIndex(seed)
                    .machine(machine)
                    .telemetry(kSampleSlices, kRingCapacity)
                    .descriptor());
            coordinates.emplace_back(mtbe, seed);
        }
    }

    const std::vector<sim::RunOutcome> outcomes =
        ctx.runSweep(descriptors);

    sim::Table table({"mtbe", "seed", "samples", "dropped", "retained",
                      "counters", "verdict"});
    Count violations = 0;
    for (std::size_t i = 0; i < outcomes.size(); ++i) {
        const sim::RunOutcome &outcome = outcomes[i];
        std::string failure;
        if (outcome.telemetry == nullptr) {
            failure = "no recorder attached";
        } else {
            const telemetry::TelemetryRecorder &recorder =
                *outcome.telemetry;
            const std::size_t retained = recorder.samples().size();
            if (retained > kRingCapacity)
                failure = "ring exceeded its capacity";
            else if (recorder.samplesTaken() !=
                     recorder.droppedSamples() + retained)
                failure = "taken != dropped + retained";
            else if (recorder.droppedSamples() == 0)
                failure = "soak run never overflowed the ring";
            else if (retained == 0 ||
                     !recorder.samples().back().final)
                failure = "last retained sample is not final";
            else {
                const std::vector<Count> totals =
                    recorder.cumulative();
                const std::vector<std::string> &names =
                    recorder.names();
                for (std::size_t c = 0; c < names.size(); ++c) {
                    if (totals[c] != outcome.snapshot.get(names[c])) {
                        failure = "conservation broken at " + names[c];
                        break;
                    }
                }
            }
        }
        if (!failure.empty()) {
            ++violations;
            std::cerr << "telemetry_soak: mtbe="
                      << coordinates[i].first << " seed="
                      << coordinates[i].second << ": " << failure
                      << "\n";
        }
        const telemetry::TelemetryRecorder *recorder =
            outcome.telemetry.get();
        table.addRow(
            {std::to_string(coordinates[i].first),
             std::to_string(coordinates[i].second),
             std::to_string(recorder ? recorder->samplesTaken() : 0),
             std::to_string(recorder ? recorder->droppedSamples() : 0),
             std::to_string(recorder ? recorder->samples().size() : 0),
             std::to_string(recorder ? recorder->names().size() : 0),
             failure.empty() ? "ok" : "FAIL"});
    }

    ctx.publishTable("telemetry_soak", table);
    std::cout << "\n" << outcomes.size()
              << " soak runs, ring capacity " << kRingCapacity
              << ", every recorder invariant checked (bounds, "
                 "accounting, final sample, conservation).\n";

    if (violations != 0) {
        fatal("telemetry_soak: " + std::to_string(violations) +
              " run(s) violated the telemetry recorder contract "
              "(see stderr)");
    }
}

const sim::ScenarioRegistrar registrar({
    "telemetry_soak",
    "ring-overflow soak of the in-run telemetry recorder",
    "docs/TELEMETRY.md",
    {"soak", "stress"},
    runScenario,
});

} // namespace
