#include "apps/app.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace commguard::apps
{

media::Image
jpegImageFromOutput(const std::vector<Word> &words, int width,
                    int height)
{
    media::Image image(width, height);
    const std::size_t expected =
        static_cast<std::size_t>(width) * height * 3;
    for (std::size_t i = 0; i < expected; ++i) {
        // Missing output reads as black; corrupted words clamp.
        const SWord value =
            i < words.size() ? static_cast<SWord>(words[i]) : 0;
        image.rgb[i] = static_cast<std::uint8_t>(
            std::clamp<SWord>(value, 0, 255));
    }
    return image;
}

std::vector<float>
floatsFromWords(const std::vector<Word> &words)
{
    std::vector<float> floats;
    floats.reserve(words.size());
    for (Word w : words) {
        const float f = wordToFloat(w);
        // Corrupted bit patterns can decode to NaN/inf; treat them as
        // silence so quality metrics stay finite.
        floats.push_back(std::isfinite(f) ? f : 0.0f);
    }
    return floats;
}

std::vector<Word>
wordsFromFloats(const std::vector<float> &floats)
{
    std::vector<Word> words;
    words.reserve(floats.size());
    for (float f : floats)
        words.push_back(floatToWord(f));
    return words;
}

const std::vector<std::string> &
allAppNames()
{
    static const std::vector<std::string> names = {
        "audiobeamformer", "channelvocoder", "complex-fir",
        "fft",             "jpeg",           "mp3",
    };
    return names;
}

App
makeAppByName(const std::string &name)
{
    if (name == "jpeg")
        return makeJpegApp();
    if (name == "mp3")
        return makeMp3App();
    if (name == "audiobeamformer")
        return makeBeamformerApp();
    if (name == "channelvocoder")
        return makeChannelVocoderApp();
    if (name == "complex-fir")
        return makeComplexFirApp();
    if (name == "fft")
        return makeFftApp();
    fatal("unknown benchmark: " + name);
}

} // namespace commguard::apps
