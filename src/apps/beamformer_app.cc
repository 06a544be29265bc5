#include "apps/app.hh"

#include <cmath>
#include <memory>
#include <vector>

#include "kernels/basic.hh"
#include "kernels/dsp_kernels.hh"
#include "media/quality.hh"

namespace commguard::apps
{

using namespace streamit;

namespace
{

constexpr int numChannels = 4;
constexpr float channelWeight = 1.0f / numChannels;
constexpr int firTaps = 32;

/** Per-channel arrival delays of the simulated wavefront. */
constexpr int arrivalDelay[numChannels] = {0, 3, 6, 9};
constexpr int maxDelay = 9;

/** Steering delay applied by channel c to re-align the wavefront. */
int
steeringDelay(int channel)
{
    return maxDelay - arrivalDelay[channel];
}

/**
 * Per-channel interpolation FIR (windowed-sinc lowpass with the
 * channel weight folded in) -- the StreamIt beamformer's per-channel
 * filtering stage; this is also what gives each thread the paper's
 * ~72-instruction frame computations.
 */
std::vector<float>
channelFirTaps()
{
    const double pi = std::acos(-1.0);
    const double cutoff = 0.22;  // Normalized passband edge.
    const double mid = (firTaps - 1) / 2.0;
    std::vector<float> taps(firTaps);
    for (int n = 0; n < firTaps; ++n) {
        const double k = n - mid;
        double ideal;
        if (std::fabs(k) < 1e-9)
            ideal = 2 * cutoff;
        else
            ideal = std::sin(2 * pi * cutoff * k) / (pi * k);
        const double window =
            0.54 - 0.46 * std::cos(2 * pi * n / (firTaps - 1));
        taps[n] = static_cast<float>(ideal * window * channelWeight);
    }
    return taps;
}

/**
 * Simulated 4-sensor capture of a wavefront: each channel hears the
 * source delayed by its arrival delay plus independent sensor noise.
 * Returned interleaved (ch0, ch1, ch2, ch3 per sample instant).
 */
std::vector<float>
makeSensorCapture(int samples)
{
    const double pi = std::acos(-1.0);
    std::vector<float> source(samples);
    for (int i = 0; i < samples; ++i) {
        const double t = i / 16384.0;
        source[i] = static_cast<float>(
            0.6 * std::sin(2 * pi * 300.0 * t) +
            0.3 * std::sin(2 * pi * 880.0 * t + 0.7) +
            0.1 * std::sin(2 * pi * 2400.0 * t));
    }

    std::uint32_t noise_state = 0xdecafbadu;
    auto noise = [&noise_state] {
        noise_state = noise_state * 1664525u + 1013904223u;
        return static_cast<float>(noise_state >> 8) / 16777216.0f -
               0.5f;
    };

    std::vector<float> capture(
        static_cast<std::size_t>(samples) * numChannels);
    for (int i = 0; i < samples; ++i) {
        for (int c = 0; c < numChannels; ++c) {
            const int j = i - arrivalDelay[c];
            const float s = j >= 0 ? source[j] : 0.0f;
            capture[static_cast<std::size_t>(i) * numChannels + c] =
                s + 0.25f * noise();
        }
    }
    return capture;
}

/**
 * Bit-identical host model of the beamformer graph (same float ops in
 * the same order as the kernels).
 */
std::vector<float>
hostBeamformer(const std::vector<float> &capture, int samples)
{
    const std::vector<float> taps = channelFirTaps();

    // Per-channel state, zero-initialized like core-local memory.
    std::vector<std::vector<float>> buffers(numChannels);
    std::vector<std::vector<float>> fir(
        numChannels, std::vector<float>(firTaps, 0.0f));
    std::vector<int> index(numChannels, 0);
    for (int c = 0; c < numChannels; ++c)
        buffers[c].assign(std::max(steeringDelay(c), 1), 0.0f);

    std::vector<float> output(samples);
    for (int i = 0; i < samples; ++i) {
        float filtered[numChannels];
        for (int c = 0; c < numChannels; ++c) {
            const float x =
                capture[static_cast<std::size_t>(i) * numChannels + c];
            float delayed;
            if (steeringDelay(c) == 0) {
                delayed = x;
            } else {
                delayed = buffers[c][index[c]];
                buffers[c][index[c]] = x;
                index[c] = (index[c] + 1) % steeringDelay(c);
            }
            // FIR shift + MAC in kernel order.
            for (int t = firTaps - 1; t >= 1; --t)
                fir[c][t] = fir[c][t - 1];
            fir[c][0] = delayed;
            float acc = 0.0f;
            for (int t = 0; t < firTaps; ++t)
                acc = acc + fir[c][t] * taps[t];
            filtered[c] = acc;
        }
        // joinSum pops port 0 first, then adds ports 1..3 in order.
        float acc = filtered[0];
        for (int c = 1; c < numChannels; ++c)
            acc = acc + filtered[c];
        // Sink clamp (kernel order: fmax then fmin).
        acc = std::fmax(acc, -2.0f);
        acc = std::fmin(acc, 2.0f);
        output[i] = acc;
    }
    return output;
}

} // namespace

App
makeBeamformerApp(int samples)
{
    App app;
    app.name = "audiobeamformer";

    const std::vector<float> capture = makeSensorCapture(samples);
    auto reference = std::make_shared<std::vector<float>>(
        hostBeamformer(capture, samples));

    StreamGraph &g = app.graph;
    const NodeId f0 = g.addFilter(
        {"F0_unpack", {numChannels}, {numChannels}, [](int firings) {
             return kernels::buildPassthrough("F0_unpack", numChannels,
                                              firings);
         }});
    const NodeId f1 = g.addFilter(
        {"F1_split", {numChannels}, {1, 1, 1, 1}, [](int firings) {
             return kernels::buildSplitRoundRobin(numChannels,
                                                  firings);
         }});
    const std::vector<float> taps = channelFirTaps();
    NodeId channels[numChannels];
    for (int c = 0; c < numChannels; ++c) {
        const std::string name = "CH" + std::to_string(c);
        const int delay = steeringDelay(c);
        channels[c] = g.addFilter(
            {name, {1}, {1}, [name, delay, taps](int firings) {
                 return kernels::buildBeamChannel(name, delay, taps,
                                                  firings);
             }});
    }
    const NodeId f6 = g.addFilter(
        {"F6_sum", {1, 1, 1, 1}, {1}, [](int firings) {
             return kernels::buildJoinSum(numChannels, firings);
         }});
    // The sink formats samples for the output device, clamping to its
    // +-2.0 full-scale range (as jpeg clamps to bytes, mp3 to PCM16).
    const NodeId f7 = g.addFilter(
        {"F7_sink", {1}, {1}, [](int firings) {
             return kernels::buildClampRange("F7_sink", -2.0f, 2.0f, 1,
                                             firings);
         }});

    g.setExternalInput(f0, 0);
    g.connect(f0, 0, f1, 0);
    for (int c = 0; c < numChannels; ++c) {
        g.connect(f1, c, channels[c], 0);
        g.connect(channels[c], 0, f6, c);
    }
    g.connect(f6, 0, f7, 0);
    g.setExternalOutput(f7, 0);

    app.input = wordsFromFloats(capture);
    app.steadyIterations = static_cast<Count>(samples);
    app.errorFreeQualityDb =
        std::numeric_limits<double>::infinity();
    app.quality = [reference](const std::vector<Word> &output) {
        return media::snrDb(*reference, floatsFromWords(output));
    };
    return app;
}

} // namespace commguard::apps
