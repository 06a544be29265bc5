#include "apps/app.hh"

#include <memory>

#include "kernels/audio_kernels.hh"
#include "kernels/basic.hh"
#include "media/audio.hh"
#include "media/quality.hh"
#include "media/subband_codec.hh"

namespace commguard::apps
{

using namespace streamit;
namespace sb = media::subband;

App
makeMp3App(int samples)
{
    App app;
    app.name = "mp3";

    auto audio = std::make_shared<std::vector<float>>(
        media::makeMusicAudio(samples));
    const sb::SubbandStream stream = sb::encode(*audio);

    StreamGraph &g = app.graph;

    const NodeId f0 = g.addFilter(
        {"F0_unpack", {sb::wordsPerBlock}, {sb::wordsPerBlock},
         [](int firings) {
             return kernels::buildPassthrough(
                 "F0_unpack", sb::wordsPerBlock, firings);
         }});
    const NodeId f1 = g.addFilter(
        {"F1_dequant_split", {sb::wordsPerBlock},
         {sb::bands / 2, sb::bands / 2}, [](int firings) {
             return kernels::buildSubbandDequantSplit(firings);
         }});
    const NodeId f2a = g.addFilter(
        {"F2a_imdct_even", {sb::bands / 2}, {sb::windowLen},
         [](int firings) {
             return kernels::buildImdctPartial(0, firings);
         }});
    const NodeId f2b = g.addFilter(
        {"F2b_imdct_odd", {sb::bands / 2}, {sb::windowLen},
         [](int firings) {
             return kernels::buildImdctPartial(1, firings);
         }});
    const NodeId f4 = g.addFilter(
        {"F4_join_add", {sb::windowLen, sb::windowLen},
         {sb::windowLen}, [](int firings) {
             return kernels::buildJoinAdd(firings);
         }});
    const NodeId f5 = g.addFilter(
        {"F5_overlap", {sb::windowLen}, {sb::bands}, [](int firings) {
             return kernels::buildOverlapAdd(firings);
         }});
    const NodeId f6 = g.addFilter(
        {"F6_pcm", {sb::bands}, {sb::bands}, [](int firings) {
             return kernels::buildPcmClamp(firings);
         }});
    const NodeId f7 = g.addFilter(
        {"F7_sink", {sb::bands}, {sb::bands}, [](int firings) {
             return kernels::buildPassthrough("F7_sink", sb::bands,
                                              firings);
         }});

    g.setExternalInput(f0, 0);
    g.connect(f0, 0, f1, 0);
    g.connect(f1, 0, f2a, 0);
    g.connect(f1, 1, f2b, 0);
    g.connect(f2a, 0, f4, 0);
    g.connect(f2b, 0, f4, 1);
    g.connect(f4, 0, f5, 0);
    g.connect(f5, 0, f6, 0);
    g.connect(f6, 0, f7, 0);
    g.setExternalOutput(f7, 0);

    app.input = stream.words;
    app.steadyIterations = static_cast<Count>(stream.numBlocks);

    app.errorFreeQualityDb =
        media::snrDb(*audio, sb::decodeHost(stream));

    const int num_samples = samples;
    app.quality = [audio, num_samples](
                      const std::vector<Word> &output) {
        // The first 32 PCM samples reconstruct the encoder's leading
        // zero padding; the decoded clip follows.
        std::vector<float> decoded(
            static_cast<std::size_t>(num_samples), 0.0f);
        for (int i = 0; i < num_samples; ++i) {
            const std::size_t index =
                static_cast<std::size_t>(i) + sb::bands;
            if (index < output.size()) {
                // The output device is 16-bit PCM: corrupted words
                // saturate at full scale, exactly as writeWav clamps.
                const float v =
                    static_cast<float>(
                        static_cast<SWord>(output[index])) /
                    32767.0f;
                decoded[i] = std::clamp(v, -1.0f, 1.0f);
            }
        }
        return media::snrDb(*audio, decoded);
    };
    return app;
}

} // namespace commguard::apps
