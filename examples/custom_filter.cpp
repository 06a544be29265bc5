// custom_filter: how to extend the library with your own filter.
//
// This example builds a 3-stage pipeline from scratch — a soft-clip
// waveshaper written directly in the simulated ISA via the assembler
// EDSL, between two library kernels — wires it into an App with its
// own quality metric, and runs it error-free and with errors under
// CommGuard. It is the template to copy when adding a new benchmark.

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <vector>

#include "apps/app.hh"
#include "isa/assembler.hh"
#include "kernels/basic.hh"
#include "media/quality.hh"
#include "sim/experiment.hh"
#include "sim/experiment_config.hh"

using namespace commguard;

namespace
{

/**
 * The custom kernel: per firing pops one float sample x and pushes a
 * cubic soft-clip y = x - x^3/3 for |x| <= 1, saturating to +-2/3
 * outside — a classic waveshaper with no filter state.
 */
isa::Program
buildSoftClip(int firings)
{
    using namespace isa;
    Assembler a("soft_clip");
    a.forDown(R30, static_cast<Word>(firings), [&] {
        a.pop(R2, 0);
        // Clamp into [-1, 1] first (also absorbs corrupted NaNs).
        a.lif(R3, -1.0f);
        a.fmax(R2, R2, R3);
        a.lif(R3, 1.0f);
        a.fmin(R2, R2, R3);
        // y = x - x*x*x/3.
        a.fmul(R4, R2, R2);
        a.fmul(R4, R4, R2);
        a.lif(R5, 1.0f / 3.0f);
        a.fmul(R4, R4, R5);
        a.fsub(R6, R2, R4);
        a.push(0, R6);
    });
    a.setEstimatedInsts(static_cast<Count>(firings) * 14);
    return a.finalize();
}

/** Host model with the kernel's exact float operations. */
float
hostSoftClip(float x)
{
    x = std::fmax(x, -1.0f);
    x = std::fmin(x, 1.0f);
    float cube = x * x;
    cube = cube * x;
    cube = cube * (1.0f / 3.0f);
    return x - cube;
}

apps::App
makeSoftClipApp(int samples)
{
    apps::App app;
    app.name = "soft-clip";

    // Input: a loud sine that drives the shaper into saturation.
    std::vector<float> input(samples);
    for (int i = 0; i < samples; ++i)
        input[i] = 1.4f * std::sin(0.02f * static_cast<float>(i));

    auto reference = std::make_shared<std::vector<float>>(samples);
    for (int i = 0; i < samples; ++i)
        (*reference)[i] = hostSoftClip(input[i]);

    streamit::StreamGraph &g = app.graph;
    const streamit::NodeId src = g.addFilter(
        {"unpack", {1}, {1}, [](int firings) {
             return kernels::buildPassthrough("unpack", 1, firings);
         }});
    const streamit::NodeId shaper = g.addFilter(
        {"soft_clip", {1}, {1}, [](int firings) {
             return buildSoftClip(firings);
         }});
    const streamit::NodeId sink = g.addFilter(
        {"sink", {1}, {1}, [](int firings) {
             return kernels::buildClampRange("sink", -1.0f, 1.0f, 1,
                                             firings);
         }});
    g.connect(src, 0, shaper, 0);
    g.connect(shaper, 0, sink, 0);
    g.setExternalInput(src, 0);
    g.setExternalOutput(sink, 0);

    app.input = apps::wordsFromFloats(input);
    app.steadyIterations = static_cast<Count>(samples);
    app.errorFreeQualityDb = std::numeric_limits<double>::infinity();
    app.quality = [reference](const std::vector<Word> &output) {
        return media::snrDb(*reference,
                            apps::floatsFromWords(output));
    };
    return app;
}

} // namespace

int
main()
{
    const apps::App app = makeSoftClipApp(8192);

    const sim::RunOutcome clean_run =
        sim::ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .noErrors()
            .run();
    std::printf("error-free: SNR vs host model = %s (bit-exact)\n",
                std::isinf(clean_run.qualityDb) ? "inf" : "FINITE?!");

    for (double mtbe : {1024e3, 256e3, 64e3}) {
        const sim::RunOutcome outcome =
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .mtbe(mtbe)
                .seed(11)
                .run();
        std::printf("mtbe=%5.0fk: SNR %6.1f dB, %llu errors, "
                    "%llu padded, %llu discarded\n",
                    mtbe / 1000, outcome.qualityDb,
                    static_cast<unsigned long long>(
                        outcome.errorsInjected()),
                    static_cast<unsigned long long>(
                        outcome.paddedItems()),
                    static_cast<unsigned long long>(
                        outcome.discardedItems()));
    }

    std::printf("\nTo add your own benchmark: write the kernel with "
                "isa::Assembler, mirror its float ops in a host "
                "model, wire the graph, and hand the App to "
                "sim::runOnce.\n");
    return 0;
}
