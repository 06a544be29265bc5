/**
 * @file
 * Benchmark application bundles.
 *
 * Each of the paper's six StreamIt benchmarks (§6) is packaged as an
 * App: the stream graph, the input stream, the number of steady-state
 * iterations (= frame computations per thread), a quality metric
 * mapping collected output words to dB, and the error-free baseline
 * quality.
 *
 * Quality semantics follow the paper: jpeg/mp3 are compared against the
 * *original* media (their baseline is the error-free lossy decode); the
 * other four are compared against the error-free execution, which this
 * reproduction computes with bit-identical host reference models (the
 * error-free VM run is tested to match them exactly).
 */

#ifndef COMMGUARD_APPS_APP_HH
#define COMMGUARD_APPS_APP_HH

#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "media/image.hh"
#include "streamit/graph.hh"

namespace commguard::apps
{

/** A ready-to-load benchmark. */
struct App
{
    std::string name;
    streamit::StreamGraph graph;
    std::vector<Word> input;
    Count steadyIterations = 0;

    /** Output quality in dB (PSNR for jpeg, SNR otherwise). */
    std::function<double(const std::vector<Word> &)> quality;

    /** Quality of an error-free execution (the paper's baselines). */
    double errorFreeQualityDb = 0.0;
};

/** The paper's jpeg benchmark (10-node graph of Fig. 1). */
App makeJpegApp(int width = 256, int height = 192, int quality = 50);

/** The paper's mp3 benchmark (subband decoder with IMDCT split-join). */
App makeMp3App(int samples = 24576);

/** Delay-and-sum audio beamformer over 4 sensor channels. */
App makeBeamformerApp(int samples = 16384);

/** 4-band channel vocoder (bandpass + envelope + carrier). */
App makeChannelVocoderApp(int samples = 16384);

/** Cascade of 4 complex FIR sections plus magnitude detector. */
App makeComplexFirApp(int samples = 16384);

/** 64-point radix-2 FFT pipeline over a stream of blocks. */
App makeFftApp(int blocks = 1024);

/** Factory by benchmark name (paper naming); fatal on unknown names. */
App makeAppByName(const std::string &name);

/** All six benchmark names in the paper's order. */
const std::vector<std::string> &allAppNames();

// ----------------------------------------------------------------------
// Output decoding helpers.
// ----------------------------------------------------------------------

/** Reassemble a decoded image from jpeg-graph output words. */
media::Image jpegImageFromOutput(const std::vector<Word> &words,
                                 int width, int height);

/** Interpret words as IEEE-754 floats. */
std::vector<float> floatsFromWords(const std::vector<Word> &words);

/** Pack floats into words. */
std::vector<Word> wordsFromFloats(const std::vector<float> &floats);

} // namespace commguard::apps

#endif // COMMGUARD_APPS_APP_HH
