#include "apps/app.hh"

#include <cmath>
#include <complex>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "kernels/basic.hh"
#include "kernels/dsp_kernels.hh"
#include "media/quality.hh"

namespace commguard::apps
{

using namespace streamit;

namespace
{

constexpr int numSections = 4;
constexpr int numTaps = 8;

/**
 * Section center frequencies (normalized). The four passbands overlap
 * around 0.11 so the cascade passes the main tone with healthy gain —
 * a channel-select chain rather than four disjoint bands.
 */
constexpr double sectionCenter[numSections] = {0.09, 0.11, 0.13,
                                               0.15};

/** Complex band-shifted lowpass taps for one cascade section. */
std::vector<std::complex<float>>
makeSectionTaps(int section)
{
    const double pi = std::acos(-1.0);
    const double cutoff = 0.09;  // Normalized lowpass width.
    const double mid = (numTaps - 1) / 2.0;
    std::vector<std::complex<float>> taps(numTaps);
    for (int n = 0; n < numTaps; ++n) {
        const double k = n - mid;
        double lowpass;
        if (std::fabs(k) < 1e-9)
            lowpass = 2 * cutoff;
        else
            lowpass = std::sin(2 * pi * cutoff * k) / (pi * k);
        const double window =
            0.54 - 0.46 * std::cos(2 * pi * n / (numTaps - 1));
        const double phase =
            2 * pi * sectionCenter[section] * n;
        taps[n] = std::complex<float>(
            static_cast<float>(lowpass * window * std::cos(phase)),
            static_cast<float>(lowpass * window * std::sin(phase)));
    }

    // Normalize to unity gain at the cascade's common passband
    // frequency (0.11) so the four sections do not attenuate the
    // signal multiplicatively.
    std::complex<double> response = 0.0;
    for (int n = 0; n < numTaps; ++n) {
        const double w = 2 * pi * 0.11 * n;
        response += std::complex<double>(taps[n]) *
                    std::complex<double>(std::cos(-w), std::sin(-w));
    }
    const double gain = std::abs(response);
    for (int n = 0; n < numTaps; ++n)
        taps[n] = std::complex<float>(
            static_cast<float>(taps[n].real() / gain),
            static_cast<float>(taps[n].imag() / gain));
    return taps;
}

/** Bit-identical host model of one complex FIR section. */
class HostSection
{
  public:
    explicit HostSection(std::vector<std::complex<float>> taps)
        : _taps(std::move(taps)),
          _dr(_taps.size(), 0.0f),
          _di(_taps.size(), 0.0f)
    {}

    void
    process(float &re, float &im)
    {
        for (std::size_t t = _taps.size() - 1; t >= 1; --t) {
            _dr[t] = _dr[t - 1];
            _di[t] = _di[t - 1];
        }
        _dr[0] = re;
        _di[0] = im;

        // Kernel accumulation order: +cr*xr, -ci*xi, +cr*xi, +ci*xr.
        float acc_re = 0.0f;
        float acc_im = 0.0f;
        for (std::size_t t = 0; t < _taps.size(); ++t) {
            acc_re = acc_re + _taps[t].real() * _dr[t];
            acc_re = acc_re - _taps[t].imag() * _di[t];
            acc_im = acc_im + _taps[t].real() * _di[t];
            acc_im = acc_im + _taps[t].imag() * _dr[t];
        }
        re = acc_re;
        im = acc_im;
    }

  private:
    std::vector<std::complex<float>> _taps;
    std::vector<float> _dr;
    std::vector<float> _di;
};

/** Synthesized complex input: tone mix plus deterministic noise. */
std::vector<float>
makeComplexInput(int samples)
{
    const double pi = std::acos(-1.0);
    std::uint32_t noise_state = 0xfeedc0deu;
    auto noise = [&noise_state] {
        noise_state = noise_state * 1664525u + 1013904223u;
        return static_cast<float>(noise_state >> 8) / 16777216.0f -
               0.5f;
    };

    std::vector<float> input(static_cast<std::size_t>(samples) * 2);
    for (int i = 0; i < samples; ++i) {
        const double t = static_cast<double>(i);
        const double re = 0.6 * std::cos(2 * pi * 0.11 * t) +
                          0.25 * std::cos(2 * pi * 0.16 * t + 0.4) +
                          0.1 * noise();
        const double im = 0.6 * std::sin(2 * pi * 0.11 * t) +
                          0.25 * std::sin(2 * pi * 0.16 * t + 0.4) +
                          0.1 * noise();
        input[static_cast<std::size_t>(i) * 2] =
            static_cast<float>(re);
        input[static_cast<std::size_t>(i) * 2 + 1] =
            static_cast<float>(im);
    }
    return input;
}

std::vector<float>
hostComplexFir(const std::vector<float> &input, int samples)
{
    std::vector<HostSection> sections;
    for (int s = 0; s < numSections; ++s)
        sections.emplace_back(makeSectionTaps(s));

    std::vector<float> output(samples);
    for (int i = 0; i < samples; ++i) {
        float re = input[static_cast<std::size_t>(i) * 2];
        float im = input[static_cast<std::size_t>(i) * 2 + 1];
        for (auto &section : sections)
            section.process(re, im);
        float mag = std::sqrt(re * re + im * im);
        mag = std::fmax(mag, 0.0f);
        mag = std::fmin(mag, 8.0f);
        output[i] = mag;
    }
    return output;
}

} // namespace

App
makeComplexFirApp(int samples)
{
    App app;
    app.name = "complex-fir";

    const std::vector<float> input = makeComplexInput(samples);
    auto reference = std::make_shared<std::vector<float>>(
        hostComplexFir(input, samples));

    StreamGraph &g = app.graph;
    const NodeId f0 = g.addFilter(
        {"F0_unpack", {2}, {2}, [](int firings) {
             return kernels::buildPassthrough("F0_unpack", 2, firings);
         }});
    NodeId prev = f0;
    int prev_port = 0;
    for (int s = 0; s < numSections; ++s) {
        std::string name = "S";
        name += std::to_string(s + 1);
        const auto taps = makeSectionTaps(s);
        const NodeId node = g.addFilter(
            {name, {2}, {2}, [name, taps](int firings) {
                 return kernels::buildComplexFir(name, taps, firings);
             }});
        g.connect(prev, prev_port, node, 0);
        prev = node;
        prev_port = 0;
    }
    const NodeId f5 = g.addFilter(
        {"F5_magnitude", {2}, {1}, [](int firings) {
             return kernels::buildMagnitude(firings);
         }});
    // Magnitudes are non-negative and stay under ~3; the sink clamps
    // into the output device's [0, 8] range.
    const NodeId f6 = g.addFilter(
        {"F6_sink", {1}, {1}, [](int firings) {
             return kernels::buildClampRange("F6_sink", 0.0f, 8.0f, 1,
                                             firings);
         }});

    g.connect(prev, 0, f5, 0);
    g.connect(f5, 0, f6, 0);
    g.setExternalInput(f0, 0);
    g.setExternalOutput(f6, 0);

    app.input = wordsFromFloats(input);
    app.steadyIterations = static_cast<Count>(samples);
    app.errorFreeQualityDb = std::numeric_limits<double>::infinity();
    app.quality = [reference](const std::vector<Word> &output) {
        return media::snrDb(*reference, floatsFromWords(output));
    };
    return app;
}

} // namespace commguard::apps
