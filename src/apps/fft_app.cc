#include "apps/app.hh"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "kernels/basic.hh"
#include "kernels/fft_kernels.hh"
#include "media/quality.hh"

namespace commguard::apps
{

using namespace streamit;

namespace
{

constexpr int fftPoints = 64;
constexpr int numStages = 6;  // log2(64)
constexpr int blockWords = 2 * fftPoints;

/** Continuous complex signal chopped into FFT blocks. */
std::vector<float>
makeFftInput(int blocks)
{
    const double pi = std::acos(-1.0);
    std::uint32_t noise_state = 0xabad1deau;
    auto noise = [&noise_state] {
        noise_state = noise_state * 1664525u + 1013904223u;
        return static_cast<float>(noise_state >> 8) / 16777216.0f -
               0.5f;
    };

    std::vector<float> input(
        static_cast<std::size_t>(blocks) * blockWords);
    for (int i = 0; i < blocks * fftPoints; ++i) {
        const double t = static_cast<double>(i);
        input[static_cast<std::size_t>(i) * 2] = static_cast<float>(
            0.7 * std::cos(2 * pi * 0.11 * t) +
            0.25 * std::cos(2 * pi * 0.31 * t + 1.1) + 0.1 * noise());
        input[static_cast<std::size_t>(i) * 2 + 1] =
            static_cast<float>(0.7 * std::sin(2 * pi * 0.11 * t) +
                               0.25 * std::sin(2 * pi * 0.31 * t + 1.1) +
                               0.1 * noise());
    }
    return input;
}

/** Bit-identical host model of the FFT pipeline (kernel op order). */
std::vector<float>
hostFft(const std::vector<float> &input, int blocks)
{
    // Bit-reversal permutation table.
    int rev[fftPoints];
    for (int i = 0; i < fftPoints; ++i) {
        int r = 0;
        for (int b = 0; b < numStages; ++b)
            if (i & (1 << b))
                r |= 1 << (numStages - 1 - b);
        rev[i] = r;
    }

    // Twiddles, float precision as in the kernel tables.
    const double pi = std::acos(-1.0);
    float wr[fftPoints / 2];
    float wi[fftPoints / 2];
    for (int t = 0; t < fftPoints / 2; ++t) {
        wr[t] = static_cast<float>(std::cos(2 * pi * t / fftPoints));
        wi[t] = static_cast<float>(-std::sin(2 * pi * t / fftPoints));
    }

    std::vector<float> output(input.size());
    std::vector<float> buf(blockWords);
    for (int block = 0; block < blocks; ++block) {
        const float *in =
            input.data() + static_cast<std::size_t>(block) * blockWords;

        for (int i = 0; i < fftPoints; ++i) {
            buf[2 * i] = in[2 * rev[i]];
            buf[2 * i + 1] = in[2 * rev[i] + 1];
        }

        for (int stage = 0; stage < numStages; ++stage) {
            const int half = 1 << stage;
            const int m = half * 2;
            const int stride = fftPoints / m;
            for (int j = 0; j < fftPoints; j += m) {
                for (int i = 0; i < half; ++i) {
                    const int t = i * stride;
                    const int idx1 = 2 * (j + i);
                    const int idx2 = idx1 + 2 * half;
                    const float ar = buf[idx1];
                    const float ai = buf[idx1 + 1];
                    const float br = buf[idx2];
                    const float bi = buf[idx2 + 1];
                    // Kernel op order.
                    float tr = br * wr[t];
                    tr = tr - bi * wi[t];
                    float ti = br * wi[t];
                    ti = ti + bi * wr[t];
                    buf[idx1] = ar + tr;
                    buf[idx1 + 1] = ai + ti;
                    buf[idx2] = ar - tr;
                    buf[idx2 + 1] = ai - ti;
                }
            }
        }

        for (int i = 0; i < blockWords; ++i) {
            float v = buf[i];
            v = std::fmax(v, -256.0f);
            v = std::fmin(v, 256.0f);
            output[static_cast<std::size_t>(block) * blockWords + i] =
                v;
        }
    }
    return output;
}

} // namespace

App
makeFftApp(int blocks)
{
    App app;
    app.name = "fft";

    const std::vector<float> input = makeFftInput(blocks);
    auto reference =
        std::make_shared<std::vector<float>>(hostFft(input, blocks));

    StreamGraph &g = app.graph;
    const NodeId f0 = g.addFilter(
        {"F0_unpack", {blockWords}, {blockWords}, [](int firings) {
             return kernels::buildPassthrough("F0_unpack", blockWords,
                                              firings);
         }});
    const NodeId f1 = g.addFilter(
        {"F1_bitrev", {blockWords}, {blockWords}, [](int firings) {
             return kernels::buildBitReverse(fftPoints, firings);
         }});
    NodeId prev = f1;
    for (int stage = 0; stage < numStages; ++stage) {
        std::string name = "S";
        name += std::to_string(stage);
        const NodeId node = g.addFilter(
            {std::move(name), {blockWords}, {blockWords},
             [stage](int firings) {
                 return kernels::buildFftStage(fftPoints, stage,
                                               firings);
             }});
        g.connect(prev, 0, node, 0);
        prev = node;
    }
    // Spectra of the test signals stay under ~70; the sink clamps
    // into the output device's [-256, 256] range.
    const NodeId f8 = g.addFilter(
        {"F8_sink", {blockWords}, {blockWords}, [](int firings) {
             return kernels::buildClampRange("F8_sink", -256.0f,
                                             256.0f, blockWords,
                                             firings);
         }});
    g.connect(prev, 0, f8, 0);
    g.connect(f0, 0, f1, 0);
    g.setExternalInput(f0, 0);
    g.setExternalOutput(f8, 0);

    app.input = wordsFromFloats(input);
    app.steadyIterations = static_cast<Count>(blocks);
    app.errorFreeQualityDb = std::numeric_limits<double>::infinity();
    app.quality = [reference](const std::vector<Word> &output) {
        return media::snrDb(*reference, floatsFromWords(output));
    };
    return app;
}

} // namespace commguard::apps
