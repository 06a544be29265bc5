/**
 * @file
 * Tests for the unified metrics registry (common/metrics.hh): counter
 * semantics, registry ownership and linking, deterministic duplicate
 * disambiguation, snapshot flattening, leaf-segment aggregation, and
 * JSON (de)serialization including non-finite gauge values.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "common/metrics.hh"

namespace commguard::metrics
{
namespace
{

// ----------------------------------------------------------------------
// Counter / Histogram value semantics.
// ----------------------------------------------------------------------

TEST(Counter, BehavesLikeACount)
{
    Counter c;
    EXPECT_EQ(c, 0u);
    ++c;
    c++;
    c += 3;
    EXPECT_EQ(c, 5u);
    EXPECT_EQ(c.value(), 5u);
    const Count as_count = c;
    EXPECT_EQ(as_count, 5u);
    c.reset();
    EXPECT_EQ(c, 0u);
}

TEST(Histogram, LabeledBucketsAndTotal)
{
    Histogram h({"a", "b", "c"});
    EXPECT_EQ(h.buckets(), 3u);
    h.add(0);
    h.add(2, 4);
    EXPECT_EQ(h.count(0), 1u);
    EXPECT_EQ(h.count(1), 0u);
    EXPECT_EQ(h.count(2), 4u);
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.names()[1], "b");
}

// ----------------------------------------------------------------------
// Registry: ownership, linking, dedup, snapshot.
// ----------------------------------------------------------------------

TEST(Registry, OwnedCounterIsCreateOrFetch)
{
    Registry registry;
    Counter &a = registry.counter("machine/timeoutsFired");
    ++a;
    Counter &b = registry.counter("machine/timeoutsFired");
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry.size(), 1u);
    EXPECT_EQ(registry.snapshot().get("machine/timeoutsFired"), 1u);
}

TEST(Registry, LinkedCountersReadComponentState)
{
    Registry registry;
    Counter loads;
    registry.link("node/f0/loads", loads);
    loads += 7;  // Increment after linking: snapshot sees it.
    const MetricSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.get("node/f0/loads"), 7u);
    EXPECT_TRUE(snapshot.hasCounter("node/f0/loads"));
    EXPECT_FALSE(snapshot.hasCounter("node/f1/loads"));
    EXPECT_EQ(snapshot.get("node/f1/loads"), 0u);
}

TEST(Registry, DuplicateNamesAreDisambiguatedDeterministically)
{
    Registry registry;
    Counter first, second;
    first += 1;
    second += 2;
    registry.link("node/f0/loads", first);
    registry.link("node/f0/loads", second);
    const MetricSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.get("node/f0/loads"), 1u);
    EXPECT_EQ(snapshot.get("node/f0/loads#2"), 2u);
    // Both still contribute to the leaf aggregate.
    EXPECT_EQ(snapshot.total("loads"), 3u);
}

TEST(Registry, HistogramFlattensToOneEntryPerBucket)
{
    Registry registry;
    Histogram states({"RcvCmp", "ExpHdr"});
    states.add(0, 3);
    states.add(1, 2);
    registry.link("cg/f0/amState", states);
    const MetricSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.get("cg/f0/amState/RcvCmp"), 3u);
    EXPECT_EQ(snapshot.get("cg/f0/amState/ExpHdr"), 2u);
}

TEST(Snapshot, TotalSumsExactLeafSegmentOnly)
{
    Registry registry;
    registry.counter("node/f0/loads") += 5;
    registry.counter("node/f1/loads") += 6;
    registry.counter("cg/f0/headerLoads") += 100;  // Different leaf.
    const MetricSnapshot snapshot = registry.snapshot();
    EXPECT_EQ(snapshot.total("loads"), 11u);
    EXPECT_EQ(snapshot.total("headerLoads"), 100u);
    EXPECT_EQ(snapshot.total("stores"), 0u);
}

TEST(Snapshot, SetCounterInsertsAndOverwrites)
{
    MetricSnapshot snapshot;
    snapshot.setCounter("run/completed", 1);
    snapshot.setCounter("run/completed", 0);
    snapshot.setCounter("run/outputItems", 42);
    snapshot.setGauge("run/qualityDb", 35.5);
    EXPECT_EQ(snapshot.get("run/completed"), 0u);
    EXPECT_EQ(snapshot.get("run/outputItems"), 42u);
    EXPECT_DOUBLE_EQ(snapshot.gauge("run/qualityDb"), 35.5);
    EXPECT_EQ(snapshot.counters().size(), 2u);
}

// ----------------------------------------------------------------------
// JSON round-trip.
// ----------------------------------------------------------------------

TEST(SnapshotJson, RoundTripsExactly)
{
    Registry registry;
    // A counter beyond double-exact range: must survive exactly.
    registry.counter("node/f0/committedInsts") +=
        (Count{1} << 60) + 3;
    registry.counter("cg/f0/paddedItems") += 9;

    MetricSnapshot original = registry.snapshot();
    original.setGauge("run/qualityDb", 35.625);
    const Json json = snapshotToJson(original);
    const MetricSnapshot parsed = snapshotFromJson(json);
    EXPECT_TRUE(parsed == original);
    EXPECT_EQ(parsed.get("node/f0/committedInsts"),
              (Count{1} << 60) + 3);
}

TEST(SnapshotJson, NonFiniteGaugesSurvive)
{
    MetricSnapshot snapshot;
    snapshot.setGauge("run/qualityDb",
                      std::numeric_limits<double>::infinity());
    const MetricSnapshot parsed =
        snapshotFromJson(snapshotToJson(snapshot));
    EXPECT_TRUE(std::isinf(parsed.gauge("run/qualityDb")));
    EXPECT_GT(parsed.gauge("run/qualityDb"), 0.0);
}

TEST(SnapshotJson, RejectsWrongSchemaVersion)
{
    MetricSnapshot snapshot;
    snapshot.setCounter("run/completed", 1);
    Json json = snapshotToJson(snapshot);
    json["schema_version"] = Json(kSchemaVersion + 1);
    EXPECT_THROW(snapshotFromJson(json), std::runtime_error);
}

TEST(SnapshotJson, SerializationIsCanonical)
{
    // Same content, different insertion order: identical bytes.
    MetricSnapshot a;
    a.setCounter("b", 2);
    a.setCounter("a", 1);
    MetricSnapshot b;
    b.setCounter("a", 1);
    b.setCounter("b", 2);
    EXPECT_EQ(snapshotToJson(a).dump(), snapshotToJson(b).dump());
}

} // namespace
} // namespace commguard::metrics
