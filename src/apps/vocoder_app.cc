#include "apps/app.hh"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kernels/basic.hh"
#include "kernels/dsp_kernels.hh"
#include "media/audio.hh"
#include "media/quality.hh"

namespace commguard::apps
{

using namespace streamit;

namespace
{

constexpr int numBands = 4;
constexpr int numTaps = 24;
constexpr float envAlpha = 0.05f;
constexpr double sampleRate = 16384.0;

/** Band edges (Hz) and carrier frequencies of the vocoder bank. */
constexpr double bandLow[numBands] = {200, 500, 1100, 2200};
constexpr double bandHigh[numBands] = {500, 1100, 2200, 4000};
constexpr double carrierHz[numBands] = {330, 720, 1500, 2800};

/** Windowed-sinc bandpass design (Hamming). */
std::vector<float>
makeBandpass(double f_low, double f_high)
{
    const double pi = std::acos(-1.0);
    std::vector<float> taps(numTaps);
    const double w1 = 2 * pi * f_low / sampleRate;
    const double w2 = 2 * pi * f_high / sampleRate;
    const double mid = (numTaps - 1) / 2.0;
    for (int n = 0; n < numTaps; ++n) {
        const double k = n - mid;
        double ideal;
        if (std::fabs(k) < 1e-9)
            ideal = (w2 - w1) / pi;
        else
            ideal = (std::sin(w2 * k) - std::sin(w1 * k)) / (pi * k);
        const double window =
            0.54 - 0.46 * std::cos(2 * pi * n / (numTaps - 1));
        taps[n] = static_cast<float>(ideal * window);
    }
    return taps;
}

/** Bit-identical host model of one vocoder band (kernel op order). */
class HostBand
{
  public:
    HostBand(std::vector<float> taps, float carrier_step)
        : _taps(std::move(taps)),
          _delay(_taps.size(), 0.0f),
          _cosD(std::cos(carrier_step)),
          _sinD(std::sin(carrier_step))
    {}

    float
    process(float x)
    {
        // FIR: shift + MAC in kernel order.
        for (std::size_t t = _taps.size() - 1; t >= 1; --t)
            _delay[t] = _delay[t - 1];
        _delay[0] = x;
        float acc = 0.0f;
        for (std::size_t t = 0; t < _taps.size(); ++t)
            acc = acc + _delay[t] * _taps[t];

        // Envelope follower, bounded to [0, 4] like the kernel.
        const float mag = std::fabs(acc);
        _env = _env + (mag - _env) * envAlpha;
        _env = std::fmax(_env, 0.0f);
        _env = std::fmin(_env, 4.0f);

        // Carrier rotation with the kernel's self-stabilizing norm
        // check (reset when outside [0.25, 4]; false for NaN too).
        const float norm = _cos * _cos + _sin * _sin;
        if (!(0.25f <= norm && norm <= 4.0f)) {
            _cos = 1.0f;
            _sin = 0.0f;
        }
        const float c = _cos * _cosD - _sin * _sinD;
        const float s = _sin * _cosD + _cos * _sinD;
        _cos = c;
        _sin = s;
        return _env * s;
    }

  private:
    std::vector<float> _taps;
    std::vector<float> _delay;
    float _cosD, _sinD;
    float _env = 0.0f;
    float _cos = 1.0f;
    float _sin = 0.0f;
};

std::vector<float>
hostVocoder(const std::vector<float> &input)
{
    const double pi = std::acos(-1.0);
    std::vector<HostBand> bank;
    for (int b = 0; b < numBands; ++b) {
        bank.emplace_back(
            makeBandpass(bandLow[b], bandHigh[b]),
            static_cast<float>(2 * pi * carrierHz[b] / sampleRate));
    }

    std::vector<float> output(input.size());
    for (std::size_t i = 0; i < input.size(); ++i) {
        float band_out[numBands];
        for (int b = 0; b < numBands; ++b)
            band_out[b] = bank[b].process(input[i]);
        float acc = band_out[0];
        for (int b = 1; b < numBands; ++b)
            acc = acc + band_out[b];
        acc = std::fmax(acc, -8.0f);
        acc = std::fmin(acc, 8.0f);
        output[i] = acc;
    }
    return output;
}

} // namespace

App
makeChannelVocoderApp(int samples)
{
    App app;
    app.name = "channelvocoder";

    const std::vector<float> input = media::makeMusicAudio(samples);
    auto reference =
        std::make_shared<std::vector<float>>(hostVocoder(input));

    const double pi = std::acos(-1.0);
    StreamGraph &g = app.graph;

    const NodeId f0 = g.addFilter(
        {"F0_unpack", {1}, {1}, [](int firings) {
             return kernels::buildPassthrough("F0_unpack", 1, firings);
         }});
    const NodeId f1 = g.addFilter(
        {"F1_split", {1}, {1, 1, 1, 1}, [](int firings) {
             return kernels::buildSplitDuplicate(numBands, firings);
         }});
    NodeId bands_nodes[numBands];
    for (int b = 0; b < numBands; ++b) {
        std::string name = "B";
        name += std::to_string(b);
        const std::vector<float> taps =
            makeBandpass(bandLow[b], bandHigh[b]);
        const float step =
            static_cast<float>(2 * pi * carrierHz[b] / sampleRate);
        bands_nodes[b] = g.addFilter(
            {name, {1}, {1}, [name, taps, step](int firings) {
                 return kernels::buildVocoderBand(name, taps, envAlpha,
                                                  step, firings);
             }});
    }
    const NodeId f6 = g.addFilter(
        {"F6_sum", {1, 1, 1, 1}, {1}, [](int firings) {
             return kernels::buildJoinSum(numBands, firings);
         }});
    // Output-device clamp, comfortably above the legitimate range.
    const NodeId f7 = g.addFilter(
        {"F7_sink", {1}, {1}, [](int firings) {
             return kernels::buildClampRange("F7_sink", -8.0f, 8.0f,
                                             1, firings);
         }});

    g.setExternalInput(f0, 0);
    g.connect(f0, 0, f1, 0);
    for (int b = 0; b < numBands; ++b) {
        g.connect(f1, b, bands_nodes[b], 0);
        g.connect(bands_nodes[b], 0, f6, b);
    }
    g.connect(f6, 0, f7, 0);
    g.setExternalOutput(f7, 0);

    app.input = wordsFromFloats(input);
    app.steadyIterations = static_cast<Count>(samples);
    app.errorFreeQualityDb = std::numeric_limits<double>::infinity();
    app.quality = [reference](const std::vector<Word> &output) {
        return media::snrDb(*reference, floatsFromWords(output));
    };
    return app;
}

} // namespace commguard::apps
