#include "sim/reliability.hh"

#include <cmath>

#include "sim/experiment.hh"

namespace commguard::sim
{

ReliabilityModel
buildReliabilityModel(const apps::App &app, Count frame_scale)
{
    streamit::LoadOptions options;
    options.mode = protection::ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.frameScale = frame_scale;

    streamit::LoadedApp loaded = streamit::loadGraph(
        app.graph, app.input, app.steadyIterations, options);
    loaded.run();

    const double frames =
        static_cast<double>(app.steadyIterations) /
        static_cast<double>(frame_scale ? frame_scale : 1);

    ReliabilityModel model;
    for (const auto &core : loaded.machine->cores()) {
        const double per_frame =
            static_cast<double>(core->counters().committedInsts) /
            frames;
        model.instsPerFrame.push_back(per_frame);
        model.totalInstsPerFrame += per_frame;
    }
    return model;
}

double
corruptedFrameFraction(const std::vector<Word> &reference,
                       const std::vector<Word> &output,
                       Count items_per_frame)
{
    if (items_per_frame == 0 || reference.empty())
        return 0.0;

    const Count frames =
        (reference.size() + items_per_frame - 1) / items_per_frame;
    Count corrupted = 0;
    for (Count frame = 0; frame < frames; ++frame) {
        const std::size_t begin =
            static_cast<std::size_t>(frame * items_per_frame);
        const std::size_t end = std::min<std::size_t>(
            begin + items_per_frame, reference.size());
        bool clean = true;
        for (std::size_t i = begin; i < end; ++i) {
            if (i >= output.size() || output[i] != reference[i]) {
                clean = false;
                break;
            }
        }
        if (!clean)
            ++corrupted;
    }
    return static_cast<double>(corrupted) /
           static_cast<double>(frames);
}

} // namespace commguard::sim
