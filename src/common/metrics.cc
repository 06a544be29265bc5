#include "common/metrics.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

namespace commguard::metrics
{

Count
Histogram::total() const
{
    Count sum = 0;
    for (const Count c : _counts)
        sum += c;
    return sum;
}

// ---------------------------------------------------------------------
// MetricSnapshot
// ---------------------------------------------------------------------

namespace
{

template <typename Entries>
auto
findEntry(Entries &entries, std::string_view name)
{
    return std::lower_bound(
        entries.begin(), entries.end(), name,
        [](const auto &entry, std::string_view key) {
            return std::string_view(entry.first) < key;
        });
}

template <typename V>
void
setEntry(std::vector<std::pair<std::string, V>> &entries,
         const std::string &name, V value)
{
    auto it = findEntry(entries, name);
    if (it != entries.end() && it->first == name)
        it->second = value;
    else
        entries.insert(it, {name, value});
}

} // namespace

Count
MetricSnapshot::get(std::string_view name) const
{
    const auto it = findEntry(_counters, name);
    return it != _counters.end() && it->first == name ? it->second : 0;
}

bool
MetricSnapshot::hasCounter(std::string_view name) const
{
    const auto it = findEntry(_counters, name);
    return it != _counters.end() && it->first == name;
}

double
MetricSnapshot::gauge(std::string_view name) const
{
    const auto it = findEntry(_gauges, name);
    return it != _gauges.end() && it->first == name ? it->second : 0.0;
}

std::string_view
leafName(std::string_view name)
{
    if (const auto slash = name.rfind('/');
        slash != std::string_view::npos)
        name.remove_prefix(slash + 1);
    if (const auto hash = name.find('#'); hash != std::string_view::npos)
        name = name.substr(0, hash);
    return name;
}

Count
MetricSnapshot::total(std::string_view leaf) const
{
    Count sum = 0;
    for (const auto &[name, value] : _counters) {
        if (leafName(name) == leaf)
            sum += value;
    }
    return sum;
}

void
MetricSnapshot::setCounter(const std::string &name, Count value)
{
    setEntry(_counters, name, value);
}

void
MetricSnapshot::setGauge(const std::string &name, double value)
{
    setEntry(_gauges, name, value);
}

Json
snapshotToJson(const MetricSnapshot &snapshot)
{
    Json counters = Json::object();
    for (const auto &[name, value] : snapshot.counters())
        counters[name] = Json(value);
    Json gauges = Json::object();
    for (const auto &[name, value] : snapshot.gauges())
        gauges[name] = Json(value);

    Json out = Json::object();
    out["schema_version"] =
        Json(static_cast<std::int64_t>(snapshot.schemaVersion));
    out["counters"] = std::move(counters);
    out["gauges"] = std::move(gauges);
    return out;
}

namespace
{

double
gaugeFromJson(const Json &value)
{
    if (value.isString()) {
        // Non-finite doubles are serialized as tagged strings.
        if (value.str() == "inf")
            return std::numeric_limits<double>::infinity();
        if (value.str() == "-inf")
            return -std::numeric_limits<double>::infinity();
        if (value.str() == "nan")
            return std::numeric_limits<double>::quiet_NaN();
        throw std::runtime_error("metric snapshot: bad gauge string \"" +
                                 value.str() + "\"");
    }
    return value.number();
}

} // namespace

MetricSnapshot
snapshotFromJson(const Json &json)
{
    const Json *version = json.find("schema_version");
    if (version == nullptr || !version->isNumber())
        throw std::runtime_error(
            "metric snapshot: missing schema_version");
    if (version->number() !=
        static_cast<double>(kSchemaVersion)) {
        throw std::runtime_error(
            "metric snapshot: unsupported schema_version " +
            std::to_string(version->number()));
    }

    const Json *counters = json.find("counters");
    const Json *gauges = json.find("gauges");
    if (counters == nullptr || !counters->isObject() ||
        gauges == nullptr || !gauges->isObject())
        throw std::runtime_error(
            "metric snapshot: missing counters/gauges objects");

    MetricSnapshot snapshot;
    snapshot.schemaVersion = kSchemaVersion;
    for (const auto &[name, value] : counters->obj())
        snapshot.setCounter(name, value.counter());
    for (const auto &[name, value] : gauges->obj())
        snapshot.setGauge(name, gaugeFromJson(value));
    return snapshot;
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

std::string
Registry::uniqueName(std::string name)
{
    const auto taken = [this](const std::string &candidate) {
        return std::any_of(_bindings.begin(), _bindings.end(),
                           [&](const Binding &b) {
                               return b.name == candidate;
                           });
    };
    if (!taken(name))
        return name;
    for (int k = 2;; ++k) {
        const std::string candidate =
            name + "#" + std::to_string(k);
        if (!taken(candidate))
            return candidate;
    }
}

void
Registry::bind(std::string name, Kind kind, const void *metric)
{
    _bindings.push_back(
        Binding{uniqueName(std::move(name)), kind, metric});
}

Counter &
Registry::counter(const std::string &name)
{
    for (const Binding &binding : _bindings) {
        if (binding.name == name && binding.kind == Kind::Counter) {
            for (Counter &owned : _ownedCounters) {
                if (&owned == binding.metric)
                    return owned;
            }
        }
    }
    _ownedCounters.emplace_back();
    bind(name, Kind::Counter, &_ownedCounters.back());
    return _ownedCounters.back();
}

void
Registry::link(const std::string &name, const Counter &counter)
{
    bind(name, Kind::Counter, &counter);
}

void
Registry::link(const std::string &name, const Histogram &histogram)
{
    bind(name, Kind::Histogram, &histogram);
}

MetricSnapshot
Registry::snapshot() const
{
    MetricSnapshot out;
    for (const Binding &binding : _bindings) {
        switch (binding.kind) {
          case Kind::Counter:
            out.setCounter(
                binding.name,
                static_cast<const Counter *>(binding.metric)->value());
            break;
          case Kind::Histogram: {
            const auto &histogram =
                *static_cast<const Histogram *>(binding.metric);
            for (std::size_t b = 0; b < histogram.buckets(); ++b) {
                out.setCounter(binding.name + "/" +
                                   histogram.names()[b],
                               histogram.count(b));
            }
            break;
          }
        }
    }
    return out;
}

} // namespace commguard::metrics
