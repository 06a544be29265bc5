// audio_pipeline: run the mp3-style subband decoder on the error-prone
// multicore and write the decoded audio as WAV files at several error
// rates — the audible counterpart of the paper's Fig. 10b (their
// example outputs were published as a listening clip).
//
// Usage: audio_pipeline [output_dir]   (default: example_out)

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "media/audio.hh"
#include "sim/experiment.hh"
#include "sim/experiment_config.hh"

using namespace commguard;

namespace
{

/** Convert collected PCM words back to [-1, 1] floats. */
std::vector<float>
pcmToFloats(const std::vector<Word> &output)
{
    std::vector<float> samples;
    samples.reserve(output.size());
    for (Word w : output) {
        const float v =
            static_cast<float>(static_cast<SWord>(w)) / 32767.0f;
        samples.push_back(std::clamp(v, -1.0f, 1.0f));
    }
    return samples;
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "example_out";
    std::filesystem::create_directories(dir);

    const int sample_rate = 32768;
    const int samples = 32768;  // One second of audio.
    const apps::App app = apps::makeMp3App(samples);

    // The original (uncompressed) clip for reference listening.
    media::writeWav(media::makeMusicAudio(samples), sample_rate,
                    dir + "/original.wav");
    std::printf("mp3-style decode on 8 simulated error-prone cores "
                "(error-free lossy SNR: %.1f dB)\n\n",
                app.errorFreeQualityDb);

    struct Point
    {
        const char *label;
        bool inject;
        double mtbe;
    };
    const Point points[] = {
        {"error_free", false, 0},
        {"mtbe2048k", true, 2048e3},
        {"mtbe512k", true, 512e3},
        {"mtbe128k", true, 128e3},
        {"mtbe64k", true, 64e3},
    };

    for (const Point &point : points) {
        sim::ExperimentConfig config =
            sim::ExperimentConfig::app(app)
                .mode(protection::ProtectionMode::CommGuard)
                .seed(7);
        if (point.inject)
            config.mtbe(point.mtbe);
        else
            config.noErrors();
        const sim::RunOutcome outcome = config.run();

        const std::string path =
            dir + "/decoded_" + point.label + ".wav";
        media::writeWav(pcmToFloats(outcome.output), sample_rate, path);
        std::printf("%-12s SNR %6.1f dB   padded %6llu  discarded "
                    "%6llu   %s\n",
                    point.label, outcome.qualityDb,
                    static_cast<unsigned long long>(
                        outcome.paddedItems()),
                    static_cast<unsigned long long>(
                        outcome.discardedItems()),
                    path.c_str());
    }

    std::printf("\nListen to the WAVs: corruption appears as brief "
                "clicks/dropouts that realign at frame boundaries.\n");
    return 0;
}
