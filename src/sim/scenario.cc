#include "sim/scenario.hh"

#include <filesystem>
#include <iostream>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "sim/env_options.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"

namespace commguard::sim
{

SweepAxes
sweepAxes(bool quick)
{
    SweepAxes axes;
    if (quick) {
        axes.seeds = 2;
        axes.mtbe = {128'000, 1'024'000, 8'192'000};
        axes.frameScales = {1};
    } else {
        axes.seeds = seedsPerPoint;
        axes.mtbe = mtbeAxis();
        axes.frameScales = {1, 2, 4, 8};
    }
    return axes;
}

ScenarioContext::ScenarioContext(Options options)
    : _options(std::move(options)), _axes(sweepAxes(_options.quick))
{
}

ScenarioContext::Options
ScenarioContext::optionsFromEnv()
{
    const EnvOptions &env = EnvOptions::get();
    Options options;
    options.quick = env.quick;
    options.csv = env.csv;
    options.writeJson = env.json;
    if (!env.modeFilter.empty()) {
        options.modeFilter = {
            protection::parseProtectionMode(env.modeFilter)};
    }
    return options;
}

ScenarioContext
ScenarioContext::fromEnv()
{
    return ScenarioContext(optionsFromEnv());
}

std::vector<protection::ProtectionMode>
ScenarioContext::modesToRun() const
{
    if (!_options.modeFilter.empty())
        return _options.modeFilter;
    return protection::ProtectionRegistry::instance().modes();
}

std::string
ScenarioContext::outputDir() const
{
    std::error_code ec;
    std::filesystem::create_directories(_options.artifactDir, ec);
    if (ec) {
        fatal("scenario: cannot create artifact directory '" +
              _options.artifactDir + "': " + ec.message());
    }
    return _options.artifactDir;
}

void
ScenarioContext::publishTable(const std::string &name,
                              const Table &table)
{
    table.print();
    if (_options.csv) {
        std::cout << "\n[csv]\n";
        table.printCsv();
    }

    _rows += table.rowCount();
    _documents.emplace_back(name, benchDocument(name, table.toJson()));
    if (_options.writeJson)
        writeBenchJson(name, table.toJson());
}

std::vector<RunOutcome>
ScenarioContext::runSweep(
    const std::vector<RunDescriptor> &descriptors) const
{
    SweepRunner &runner = sharedRunner();
    for (const RunDescriptor &descriptor : descriptors)
        runner.enqueue(descriptor);
    return runner.runAll();
}

RunOutcome
ScenarioContext::runOne(const RunDescriptor &descriptor) const
{
    return runSweep({descriptor}).front();
}

std::vector<double>
ScenarioContext::qualitySamples(const apps::App &app,
                                protection::ProtectionMode mode,
                                bool inject, double mtbe,
                                Count frame_scale) const
{
    std::vector<RunDescriptor> descriptors;
    descriptors.reserve(static_cast<std::size_t>(seeds()));
    for (int seed = 0; seed < seeds(); ++seed) {
        descriptors.push_back(RunDescriptor{
            &app,
            sweepOptions(mode, inject, mtbe, seed, frame_scale)});
    }

    std::vector<double> samples;
    for (const RunOutcome &outcome : runSweep(descriptors))
        samples.push_back(outcome.qualityDb);
    return samples;
}

ScenarioRegistry &
ScenarioRegistry::instance()
{
    static ScenarioRegistry registry;
    return registry;
}

void
ScenarioRegistry::add(Scenario scenario)
{
    if (scenario.name.empty())
        fatal("scenario registry: scenario with empty name");
    if (!scenario.run) {
        fatal("scenario registry: '" + scenario.name +
              "' has no run function");
    }
    const auto [it, inserted] =
        _scenarios.emplace(scenario.name, std::move(scenario));
    if (!inserted) {
        fatal("scenario registry: duplicate scenario '" + it->first +
              "'");
    }
}

const Scenario *
ScenarioRegistry::find(const std::string &name) const
{
    const auto it = _scenarios.find(name);
    return it == _scenarios.end() ? nullptr : &it->second;
}

std::vector<const Scenario *>
ScenarioRegistry::all() const
{
    std::vector<const Scenario *> result;
    result.reserve(_scenarios.size());
    for (const auto &[name, scenario] : _scenarios)
        result.push_back(&scenario);
    return result;
}

std::vector<const Scenario *>
ScenarioRegistry::withTag(const std::string &tag) const
{
    std::vector<const Scenario *> result;
    for (const auto &[name, scenario] : _scenarios) {
        for (const std::string &candidate : scenario.tags) {
            if (candidate == tag) {
                result.push_back(&scenario);
                break;
            }
        }
    }
    return result;
}

std::vector<std::string>
ScenarioRegistry::names() const
{
    std::vector<std::string> result;
    result.reserve(_scenarios.size());
    for (const auto &[name, scenario] : _scenarios)
        result.push_back(name);
    return result;
}

Json
scenarioListJson()
{
    Json scenarios = Json::array();
    for (const Scenario *scenario : ScenarioRegistry::instance().all()) {
        Json entry = Json::object();
        entry["name"] = Json(scenario->name);
        entry["description"] = Json(scenario->description);
        entry["paper_ref"] = Json(scenario->paperRef);
        Json tags = Json::array();
        for (const std::string &tag : scenario->tags)
            tags.push(Json(tag));
        entry["tags"] = tags;
        scenarios.push(entry);
    }

    Json document = Json::object();
    document["schema_version"] = Json(metrics::kSchemaVersion);
    document["scenarios"] = scenarios;
    return document;
}

SchemaErrors
checkScenarioList(const std::string &text)
{
    static constexpr SchemaMember kEntryMembers[] = {
        {"name", JsonKind::String},
        {"description", JsonKind::String},
        {"paper_ref", JsonKind::String},
        {"tags", JsonKind::Array},
    };

    SchemaErrors errors;
    const std::optional<Json> document = parseObject(text, errors);
    if (!document)
        return errors;
    checkVersion(*document, "schema_version", metrics::kSchemaVersion,
                 errors);
    const Json *scenarios =
        typedMember(*document, {"scenarios", JsonKind::Array}, errors);
    if (scenarios == nullptr)
        return errors;
    if (scenarios->arr().empty())
        errors.push_back("scenarios array is empty");

    const std::string *previous = nullptr;
    for (std::size_t i = 0; i < scenarios->arr().size(); ++i) {
        SchemaErrors entry_errors;
        if (const auto members = requireMembers(scenarios->arr()[i],
                                                kEntryMembers, entry_errors)) {
            const auto &[name, description, paper_ref, tags] = *members;
            if (name->str().empty() || description->str().empty() ||
                paper_ref->str().empty())
                entry_errors.push_back(
                    "empty name, description or paper_ref");
            if (tags->arr().empty())
                entry_errors.push_back("empty tags array");
            for (const Json &tag : tags->arr()) {
                if (!tag.isString() || tag.str().empty()) {
                    entry_errors.push_back(
                        "tag is not a non-empty string");
                    break;
                }
            }
            if (previous != nullptr && name->str() <= *previous)
                entry_errors.push_back("names not sorted/unique: '" +
                                       name->str() + "' after '" +
                                       *previous + "'");
            previous = &name->str();
        }
        appendErrors(errors, "scenario " + std::to_string(i), entry_errors);
    }
    return errors;
}

} // namespace commguard::sim
