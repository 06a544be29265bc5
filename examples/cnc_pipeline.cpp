// cnc_pipeline: CommGuard under a different programming model.
//
// Paper §8 argues CommGuard is not StreamIt-specific: any model that
// links data to coarse control flow through identifiers — Concurrent
// Collections tags, MapReduce keys — can implement it. This example
// writes a small sensor-fusion program in the CnC-style tagged API
// (src/cnc/): three step collections prescribed by a common tag space,
// connected by item collections. The lowering turns tags into
// CommGuard frame IDs, so the same HI/AM/QM modules protect it.
//
// Per tag t, the environment supplies 4 sensor readings; `calibrate`
// scales them, `fuse` averages them into one estimate, and `track`
// keeps an exponential moving average.

#include <cmath>
#include <cstdio>
#include <vector>

#include "cnc/cnc.hh"
#include "isa/assembler.hh"
#include "sim/experiment.hh"
#include "streamit/loader.hh"

using namespace commguard;
using namespace commguard::isa;

namespace
{

constexpr int readingsPerTag = 4;

isa::Program
calibrateBody(int instances)
{
    Assembler a("calibrate");
    a.forDown(R30, static_cast<Word>(instances), [&] {
        a.forDown(R29, readingsPerTag, [&] {
            a.pop(R2, 0);
            a.lif(R3, 0.01f);   // Gain: raw counts -> units.
            a.fmul(R4, R2, R3);
            a.lif(R3, -0.2f);   // Offset correction.
            a.fadd(R4, R4, R3);
            a.push(0, R4);
        });
    });
    a.setEstimatedInsts(static_cast<Count>(instances) *
                        (readingsPerTag * 8 + 6));
    return a.finalize();
}

isa::Program
fuseBody(int instances)
{
    Assembler a("fuse");
    a.forDown(R30, static_cast<Word>(instances), [&] {
        a.lif(R4, 0.0f);
        a.forDown(R29, readingsPerTag, [&] {
            a.pop(R2, 0);
            a.fadd(R4, R4, R2);
        });
        a.lif(R3, 1.0f / readingsPerTag);
        a.fmul(R4, R4, R3);
        a.push(0, R4);
    });
    a.setEstimatedInsts(static_cast<Count>(instances) *
                        (readingsPerTag * 4 + 10));
    return a.finalize();
}

isa::Program
trackBody(int instances)
{
    Assembler a("track");
    const Word state = a.reserve(1);  // EMA across tags.
    a.forDown(R30, static_cast<Word>(instances), [&] {
        a.pop(R2, 0);
        a.lw(R3, R0, static_cast<SWord>(state));
        a.fsub(R4, R2, R3);
        a.lif(R5, 0.25f);
        a.fmul(R4, R4, R5);
        a.fadd(R3, R3, R4);
        // Keep the tracker state bounded (self-stabilizing).
        a.lif(R5, -100.0f);
        a.fmax(R3, R3, R5);
        a.lif(R5, 100.0f);
        a.fmin(R3, R3, R5);
        a.sw(R3, R0, static_cast<SWord>(state));
        a.push(0, R3);
    });
    a.setEstimatedInsts(static_cast<Count>(instances) * 16);
    return a.finalize();
}

} // namespace

int
main()
{
    cnc::CncGraph program;
    const cnc::StepId calibrate = program.addStep(
        {"calibrate", {readingsPerTag}, {readingsPerTag},
         calibrateBody});
    const cnc::StepId fuse =
        program.addStep({"fuse", {readingsPerTag}, {1}, fuseBody});
    const cnc::StepId track =
        program.addStep({"track", {1}, {1}, trackBody});
    program.connectItems(calibrate, 0, fuse, 0);
    program.connectItems(fuse, 0, track, 0);
    program.setEnvironmentInput(calibrate, 0);
    program.setEnvironmentOutput(track, 0);

    const streamit::StreamGraph graph = program.lower();

    // Environment: 16k tags of 4 noisy readings around a slow drift.
    const int tags = 16384;
    std::vector<Word> input;
    std::uint32_t noise = 0xc0ffee11u;
    for (int t = 0; t < tags; ++t) {
        const float level =
            100.0f + 40.0f * std::sin(0.01f * static_cast<float>(t));
        for (int r = 0; r < readingsPerTag; ++r) {
            noise = noise * 1664525u + 1013904223u;
            const float jitter =
                static_cast<float>(noise >> 8) / 16777216.0f - 0.5f;
            input.push_back(floatToWord(level + 20.0f * jitter));
        }
    }

    std::printf("CnC-style tagged program on CommGuard (paper "
                "section 8)\n\n");
    std::vector<Word> reference;
    for (double mtbe : {0.0, 512e3, 64e3}) {
        streamit::LoadOptions options;
        options.mode = protection::ProtectionMode::CommGuard;
        options.injectErrors = mtbe > 0;
        options.mtbe = mtbe;
        options.seed = 3;
        streamit::LoadedApp app =
            streamit::loadGraph(graph, input, tags, options);
        const MachineRunResult result = app.run();

        // Average tracked estimate over the last quarter (steady
        // state): should sit near the calibrated drift mean (~0.8).
        const std::vector<Word> &out = app.output();
        double mean = 0.0;
        int counted = 0;
        for (std::size_t i = out.size() * 3 / 4; i < out.size(); ++i) {
            const float v = wordToFloat(out[i]);
            if (std::isfinite(v)) {
                mean += v;
                ++counted;
            }
        }
        mean /= counted > 0 ? counted : 1;

        if (reference.empty())
            reference = out;
        int corrupted_tags = 0;
        for (std::size_t i = 0; i < reference.size(); ++i) {
            if (i >= out.size() || out[i] != reference[i])
                ++corrupted_tags;
        }

        std::printf("mtbe=%8.0f  completed=%s  tags_out=%zu  steady "
                    "mean=%7.3f  corrupted tags=%d/%zu\n",
                    mtbe, result.completed ? "yes" : "no", out.size(),
                    mean, corrupted_tags, reference.size());
    }

    std::printf("\nTags are CommGuard frame IDs: the same alignment "
                "machinery that guards StreamIt pipelines guards this "
                "tagged program.\n");
    return 0;
}
