/**
 * @file
 * Stress-fuzz smoke scenario (docs/FUZZING.md).
 *
 * Runs a fixed set of seeded FuzzCases through the full invariant
 * checker — random graph shapes, random protection modes and sweep
 * axes, jobs=1 vs jobs=N determinism, counter conservation, JSONL
 * schema round-trip. The seeds are pinned so the scenario is
 * deterministic like every other catalogue entry; the open-ended
 * search lives in the cg_fuzz tool. Any invariant violation is a
 * fatal(): this scenario runs in the registry smoke test, so a
 * harness regression cannot land silently.
 */

#include <iostream>

#include "common/logging.hh"
#include "sim/fuzz.hh"
#include "sim/scenario.hh"

using namespace commguard;

namespace
{

void
runScenario(sim::ScenarioContext &ctx)
{
    std::cout << "=== Stress-fuzz smoke: seeded invariant checks ===\n\n";

    const int case_count = ctx.quick() ? 3 : 8;
    sim::Table table(
        {"seed", "stages", "mode", "jobs", "runs", "verdict"});

    std::size_t total_runs = 0;
    std::size_t violations = 0;
    for (int i = 0; i < case_count; ++i) {
        const sim::FuzzCase fuzz_case =
            sim::randomFuzzCase(static_cast<std::uint64_t>(i) + 1);
        const sim::FuzzVerdict verdict = sim::checkFuzzCase(fuzz_case);
        total_runs += verdict.runs;
        if (!verdict.ok()) {
            ++violations;
            for (const std::string &failure : verdict.failures)
                std::cerr << "fuzz_smoke: seed " << fuzz_case.caseSeed
                          << ": " << failure << "\n";
        }
        table.addRow({std::to_string(fuzz_case.caseSeed),
                      std::to_string(fuzz_case.stages),
                      protection::protectionModeName(fuzz_case.mode),
                      std::to_string(fuzz_case.jobs),
                      std::to_string(verdict.runs),
                      verdict.ok() ? "ok" : "FAIL"});
    }

    ctx.publishTable("fuzz_smoke", table);
    std::cout << "\n" << case_count << " seeded cases, " << total_runs
              << " sweep runs, every invariant checked (progress, "
                 "exactness, determinism, conservation, schema).\n";

    if (violations != 0) {
        fatal("fuzz_smoke: " + std::to_string(violations) +
              " case(s) violated harness invariants (see stderr)");
    }
}

const sim::ScenarioRegistrar registrar({
    "fuzz_smoke",
    "seeded stress-fuzz cases through every harness invariant",
    "docs/FUZZING.md",
    {"fuzz", "stress"},
    runScenario,
});

} // namespace
