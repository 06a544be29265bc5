/**
 * @file
 * Unified reliability-observability registry.
 *
 * Every observable the paper's evaluation reports — CommGuard
 * suboperations (Tables 2-3), realignment events (Figs. 7-8), memory
 * traffic (Fig. 12), watchdog and timeout activity — is a named, typed
 * metric registered here. The design splits responsibilities so the
 * hot path stays free:
 *
 *  - Components own their counters as plain struct members of type
 *    metrics::Counter (a transparent wrapper over a 64-bit count, so
 *    `++counters.loads` compiles to the same single increment as
 *    before) and *link* them into the per-run Registry by name at
 *    construction time.
 *  - The Registry is a read-only directory: it never sits on an
 *    increment path. At end of run it is flattened into one immutable
 *    MetricSnapshot — the single source every reporting layer
 *    (RunOutcome, JSONL export, BENCH_*.json) reads from.
 *
 * Naming convention (slash-separated, stable — see docs/METRICS.md):
 *    node/<core>/<counter>     per-core execution events
 *    cg/<core>/<counter>       per-core CommGuard suboperations
 *    cg/<core>/amState/<state> AM occupancy histogram buckets
 *    queue/<name>/<counter>    per-queue events
 *    machine/<counter>         scheduler-level events
 *    run/<observable>          per-run results appended by the harness
 */

#ifndef COMMGUARD_COMMON_METRICS_HH
#define COMMGUARD_COMMON_METRICS_HH

#include <cstddef>
#include <deque>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/types.hh"

namespace commguard::metrics
{

/**
 * Version of the snapshot/JSONL metric schema. Bump when the export
 * layout (key names, nesting, non-finite encoding) changes shape; the
 * schema self-check and parsers reject other versions.
 *
 * v2: the run-record descriptor key "mode" became "protection_mode"
 * (the value vocabulary is the protection registry's name set, which
 * grew "raw", "replicate" and "abft").
 */
constexpr int kSchemaVersion = 2;

/**
 * A monotonically increasing 64-bit event counter.
 *
 * Deliberately a transparent value type: components embed Counters
 * directly in their hot structs and increment through the member —
 * identical codegen to a raw Count field, no registry involvement.
 */
class Counter
{
  public:
    constexpr Counter() = default;

    Counter &
    operator++()
    {
        ++_value;
        return *this;
    }

    Counter
    operator++(int)
    {
        Counter old = *this;
        ++_value;
        return old;
    }

    Counter &
    operator+=(Count delta)
    {
        _value += delta;
        return *this;
    }

    /** Reads behave like a plain Count. */
    constexpr operator Count() const { return _value; }
    constexpr Count value() const { return _value; }

    void reset() { _value = 0; }

  private:
    Count _value = 0;
};

inline bool
operator==(const Counter &a, const Counter &b)
{
    return a.value() == b.value();
}

inline std::ostream &
operator<<(std::ostream &os, const Counter &c)
{
    return os << c.value();
}

/**
 * Fixed-bucket labeled histogram (e.g. AM state occupancy). The bucket
 * set is closed at construction; add() indexes by position so hot
 * paths never touch the labels.
 */
class Histogram
{
  public:
    explicit Histogram(std::vector<std::string> bucket_names)
        : _names(std::move(bucket_names)), _counts(_names.size(), 0)
    {}

    void
    add(std::size_t bucket, Count delta = 1)
    {
        _counts[bucket] += delta;
    }

    Count count(std::size_t bucket) const { return _counts[bucket]; }
    std::size_t buckets() const { return _names.size(); }
    const std::vector<std::string> &names() const { return _names; }

    Count total() const;

  private:
    std::vector<std::string> _names;
    std::vector<Count> _counts;
};

/**
 * Immutable flattened view of a registry at one instant: the per-run
 * record every reporting layer consumes. Entries are sorted by name,
 * so equal snapshots serialize byte-identically.
 */
class MetricSnapshot
{
  public:
    int schemaVersion = kSchemaVersion;

    /** Counter (and histogram-bucket) entry by full name; 0 if absent. */
    Count get(std::string_view name) const;

    /** Gauge entry by full name; 0.0 if absent. */
    double gauge(std::string_view name) const;

    bool hasCounter(std::string_view name) const;

    /**
     * Sum of every counter whose leafName() equals @p leaf — the
     * generic cross-component aggregation ("committedInsts" over all
     * nodes, "paddedItems" over all CommGuard modules, ...), "#k"
     * duplicates included. Adding a component anywhere in the stack
     * automatically joins the total; nothing is hand-copied.
     */
    Count total(std::string_view leaf) const;

    /** Insert or overwrite entries (harness-level run observables). */
    void setCounter(const std::string &name, Count value);
    void setGauge(const std::string &name, double value);

    const std::vector<std::pair<std::string, Count>> &counters() const
    {
        return _counters;
    }
    const std::vector<std::pair<std::string, double>> &gauges() const
    {
        return _gauges;
    }

    bool operator==(const MetricSnapshot &other) const = default;

  private:
    friend class Registry;

    // Sorted by name.
    std::vector<std::pair<std::string, Count>> _counters;
    std::vector<std::pair<std::string, double>> _gauges;
};

/**
 * The leaf of a metric name: its last path segment with any "#k"
 * duplicate-registration suffix stripped ("cg/F/paddedItems#2" →
 * "paddedItems"). The one name → leaf rule every consumer shares.
 */
std::string_view leafName(std::string_view name);

/** Serialize a snapshot as {"schema_version", "counters", "gauges"}. */
Json snapshotToJson(const MetricSnapshot &snapshot);

/**
 * Rebuild a snapshot from snapshotToJson() output (the object may
 * carry extra top-level keys, as the per-run JSONL records do).
 * Throws std::runtime_error on missing keys or schema mismatch.
 */
MetricSnapshot snapshotFromJson(const Json &json);

/**
 * Per-run metric directory.
 *
 * Holds (a) counters it owns, created on demand by counter(), and (b)
 * links to component-owned counters and histograms. Duplicate names
 * are disambiguated deterministically with a "#k" suffix so a registry
 * never silently merges two components.
 */
class Registry
{
  public:
    Registry() = default;
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** Create (or fetch) an owned counter; the reference stays valid
     *  for the registry's lifetime. */
    Counter &counter(const std::string &name);

    /** Link a component-owned metric under @p name (not owned; the
     *  component must outlive the registry's last snapshot()). */
    void link(const std::string &name, const Counter &counter);
    void link(const std::string &name, const Histogram &histogram);

    /** Number of registered metric bindings. */
    std::size_t size() const { return _bindings.size(); }

    /** Flatten every registered metric into a snapshot. */
    MetricSnapshot snapshot() const;

  private:
    enum class Kind : std::uint8_t
    {
        Counter,
        Histogram,
    };

    struct Binding
    {
        std::string name;
        Kind kind;
        const void *metric;
    };

    std::string uniqueName(std::string name);
    void bind(std::string name, Kind kind, const void *metric);

    // Deque: stable addresses under growth.
    std::deque<Counter> _ownedCounters;

    std::vector<Binding> _bindings;
};

} // namespace commguard::metrics

#endif // COMMGUARD_COMMON_METRICS_HH
