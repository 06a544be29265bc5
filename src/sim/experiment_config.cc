#include "sim/experiment_config.hh"

#include <stdexcept>
#include <string>

namespace commguard::sim
{

ExperimentConfig &
ExperimentConfig::mtbe(double value)
{
    if (!(value > 0.0))
        throw std::invalid_argument(
            "ExperimentConfig: mtbe must be positive, got " +
            std::to_string(value));
    _options.mtbe = value;
    return *this;
}

ExperimentConfig &
ExperimentConfig::perCoreMtbe(std::vector<double> mtbes)
{
    const std::size_t nodes =
        static_cast<std::size_t>(_app->graph.numNodes());
    if (!mtbes.empty() && mtbes.size() != nodes)
        throw std::invalid_argument(
            "ExperimentConfig: perCoreMtbe has " +
            std::to_string(mtbes.size()) + " entries for a " +
            std::to_string(nodes) + "-node graph");
    for (double m : mtbes)
        if (!(m > 0.0))
            throw std::invalid_argument(
                "ExperimentConfig: perCoreMtbe entries must be "
                "positive");
    _options.perCoreMtbe = std::move(mtbes);
    return *this;
}

ExperimentConfig &
ExperimentConfig::seedIndex(int index)
{
    if (index < 0)
        throw std::invalid_argument(
            "ExperimentConfig: seed index must be >= 0, got " +
            std::to_string(index));
    _options.seed = sweepOptions(_options.mode, _options.injectErrors,
                                 _options.mtbe, index)
                        .seed;
    return *this;
}

ExperimentConfig &
ExperimentConfig::replicas(int value)
{
    if (value < 2)
        throw std::invalid_argument(
            "ExperimentConfig: replicas must be >= 2, got " +
            std::to_string(value));
    _options.replicas = value;
    return *this;
}

ExperimentConfig &
ExperimentConfig::frameScale(Count value)
{
    if (value == 0)
        throw std::invalid_argument(
            "ExperimentConfig: frameScale must be nonzero");
    _options.frameScale = value;
    return *this;
}

ExperimentConfig &
ExperimentConfig::perNodeFrameScale(std::vector<Count> scales)
{
    const std::size_t nodes =
        static_cast<std::size_t>(_app->graph.numNodes());
    if (!scales.empty() && scales.size() != nodes)
        throw std::invalid_argument(
            "ExperimentConfig: perNodeFrameScale has " +
            std::to_string(scales.size()) + " entries for a " +
            std::to_string(nodes) + "-node graph");
    for (Count scale : scales)
        if (scale == 0)
            throw std::invalid_argument(
                "ExperimentConfig: perNodeFrameScale entries must "
                "be nonzero");
    _options.perNodeFrameScale = std::move(scales);
    return *this;
}

ExperimentConfig &
ExperimentConfig::queueCapacityWords(std::size_t words)
{
    if (words == 0)
        throw std::invalid_argument(
            "ExperimentConfig: queueCapacityWords must be nonzero");
    _options.queueCapacityWords = words;
    return *this;
}

RunOutcome
ExperimentConfig::run() const
{
    return runOnce(*_app, _options);
}

} // namespace commguard::sim
