/**
 * @file
 * Tests for the frame-lifecycle event tracer (docs/TRACING.md): ring
 * buffer wrap/drop accounting, event/counter conservation on traced
 * runs, the Perfetto export shape, the streamed Perfetto text against
 * a Json-tree reference writer, the per-error realignment forensics,
 * and the CG_TRACE_* environment knob validation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "apps/app.hh"
#include "common/event_trace.hh"
#include "kernels/basic.hh"
#include "queue/queue_word.hh"
#include "sim/experiment_config.hh"
#include "sim/env_options.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{
namespace
{

// ---------------------------------------------------------------------
// EventBuffer / EventTrace mechanics.
// ---------------------------------------------------------------------

TEST(EventBuffer, WrapKeepsExactCountsAndChronologicalOrder)
{
    trace::EventTrace tr(8);
    trace::EventBuffer &track = tr.addTrack("t0");

    for (int i = 0; i < 20; ++i) {
        tr.record(track, static_cast<Cycle>(i),
                  i % 2 == 0 ? trace::EventKind::QueuePush
                             : trace::EventKind::QueuePop);
    }

    EXPECT_EQ(track.recorded(), 20u);
    EXPECT_EQ(track.dropped(), 12u);
    // Counts stay exact even though only 8 records are retained.
    EXPECT_EQ(track.count(trace::EventKind::QueuePush), 10u);
    EXPECT_EQ(track.count(trace::EventKind::QueuePop), 10u);

    const std::vector<trace::Event> events = track.events();
    ASSERT_EQ(events.size(), 8u);
    for (std::size_t i = 0; i < events.size(); ++i) {
        // The oldest retained event is #12 of 20.
        EXPECT_EQ(events[i].seq, 12u + i);
        if (i > 0)
            EXPECT_LT(events[i - 1].seq, events[i].seq);
    }
}

TEST(EventBuffer, ForensicEventsSurviveBulkFloods)
{
    trace::EventTrace tr(8);
    trace::EventBuffer &track = tr.addTrack("t0");

    // Rare repair events early, then a flood of bulk queue traffic.
    for (int i = 0; i < 3; ++i)
        tr.record(track, 0, trace::EventKind::AmPad, 1);
    tr.record(track, 0, trace::EventKind::ErrorInjected, 2, 5);
    for (int i = 0; i < 10'000; ++i)
        tr.record(track, static_cast<Cycle>(i),
                  trace::EventKind::QueuePush);

    // The bulk flood wrapped its own ring but could not evict the
    // forensic events.
    const std::vector<trace::Event> events = track.events();
    Count pads = 0, errors = 0;
    for (const trace::Event &event : events) {
        pads += event.kind == trace::EventKind::AmPad;
        errors += event.kind == trace::EventKind::ErrorInjected;
    }
    EXPECT_EQ(pads, 3u);
    EXPECT_EQ(errors, 1u);
    EXPECT_EQ(events.size(), 8u + 4u);
    EXPECT_EQ(track.dropped(), 10'004u - 12u);
    // Chronological merge across both rings.
    for (std::size_t i = 1; i < events.size(); ++i)
        EXPECT_LT(events[i - 1].seq, events[i].seq);

    // Repair-state AM transitions are forensic; RcvCmp<->ExpHdr
    // bookkeeping is bulk.
    EXPECT_TRUE(trace::isForensicEvent(trace::EventKind::AmTransition,
                                       (0u << 8) | 2u)); // -> DiscFr
    EXPECT_FALSE(trace::isForensicEvent(trace::EventKind::AmTransition,
                                        (0u << 8) | 1u)); // -> ExpHdr
}

TEST(EventBuffer, ForEachEventMergesTwoWrappedRingsInSeqOrder)
{
    trace::EventTrace tr(4);
    trace::EventBuffer &track = tr.addTrack("t0");

    // Both rings wrap, at different slots: 7 forensic pads and 10
    // bulk pushes, interleaved unevenly.
    std::vector<Count> pads, pushes;
    for (int i = 0; i < 17; ++i) {
        const bool pad = i % 5 == 1 || i % 5 == 3;
        (pad ? pads : pushes).push_back(static_cast<Count>(i));
        tr.record(track, static_cast<Cycle>(i),
                  pad ? trace::EventKind::AmPad
                      : trace::EventKind::QueuePush);
    }
    ASSERT_EQ(pads.size(), 7u);

    // Each ring keeps its newest four; the visit merges them by seq.
    std::vector<Count> expected(pads.end() - 4, pads.end());
    expected.insert(expected.end(), pushes.end() - 4, pushes.end());
    std::sort(expected.begin(), expected.end());

    std::vector<Count> visited;
    track.forEachEvent(
        [&](const trace::Event &event) { visited.push_back(event.seq); });
    EXPECT_EQ(visited, expected);
    EXPECT_EQ(track.dropped(), 17u - 8u);

    std::vector<Count> copied;
    for (const trace::Event &event : track.events())
        copied.push_back(event.seq);
    EXPECT_EQ(copied, expected);
}

TEST(EventTrace, GlobalSequenceAndQueueRegistry)
{
    trace::EventTrace tr(16);
    trace::EventBuffer &a = tr.addTrack("a");
    trace::EventBuffer &b = tr.addTrack("b");

    int qa = 0, qb = 0;
    EXPECT_EQ(tr.registerQueue(&qa, "q0"), 0u);
    EXPECT_EQ(tr.registerQueue(&qb, "q1"), 1u);
    EXPECT_EQ(tr.queueId(&qb), 1u);
    EXPECT_EQ(tr.queueId(&tr), trace::EventTrace::unknownQueue);

    tr.beginSlice(7);
    tr.record(a, 1, trace::EventKind::QueuePush);
    tr.record(b, 1, trace::EventKind::QueuePop);
    EXPECT_EQ(a.events()[0].seq, 0u);
    EXPECT_EQ(b.events()[0].seq, 1u);
    EXPECT_EQ(b.events()[0].slice, 7u);
    EXPECT_EQ(tr.recorded(), 2u);
}

// ---------------------------------------------------------------------
// Run integration: off by default, conservation when on.
// ---------------------------------------------------------------------

TEST(EventTraceRun, DisabledByDefault)
{
    const apps::App app = apps::makeFftApp(16);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(256'000)
            .seedIndex(0)
            .run();
    EXPECT_EQ(outcome.eventTrace, nullptr);

    const Json record = runRecordJson(
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(256'000)
            .seedIndex(0)
            .descriptor(),
        outcome);
    EXPECT_EQ(record.find("forensics"), nullptr);
}

TEST(EventTraceRun, ConservationHoldsOnInjectedCommGuardRun)
{
    const apps::App app = apps::makeFftApp(16);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(64'000)
            .seedIndex(0)
            .traceEvents(true)
            .run();
    ASSERT_NE(outcome.eventTrace, nullptr);
    const trace::EventTrace &tr = *outcome.eventTrace;

    // The run actually exercised the error path.
    EXPECT_GT(tr.count(trace::EventKind::ErrorInjected), 0u);
    EXPECT_GT(tr.count(trace::EventKind::InvocationStart), 0u);
    EXPECT_GT(tr.count(trace::EventKind::HeaderInsert), 0u);

    const std::vector<std::string> errors =
        traceConservationErrors(tr, outcome.snapshot);
    EXPECT_TRUE(errors.empty())
        << "first violation: " << errors.front();
}

TEST(EventTraceRun, ConservationHoldsOnPpuOnlyRun)
{
    // Raw runs corrupt software-queue state directly (Fig. 3b);
    // the QueueCorrupt events must match the queue corruption
    // counters exactly.
    const apps::App app = apps::makeFftApp(16);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::Raw)
            .mtbe(64'000)
            .seedIndex(1)
            .traceEvents(true)
            .run();
    ASSERT_NE(outcome.eventTrace, nullptr);

    const std::vector<std::string> errors =
        traceConservationErrors(*outcome.eventTrace, outcome.snapshot);
    EXPECT_TRUE(errors.empty())
        << "first violation: " << errors.front();
}

// ---------------------------------------------------------------------
// Perfetto export shape.
// ---------------------------------------------------------------------

TEST(PerfettoExport, DocumentShapeAndExactSidecarCounts)
{
    const apps::App app = apps::makeFftApp(16);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(128'000)
            .seedIndex(0)
            .traceEvents(true)
            .run();
    ASSERT_NE(outcome.eventTrace, nullptr);
    const trace::EventTrace &tr = *outcome.eventTrace;

    const Json doc = perfettoTraceJson(tr);
    const Json *events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    const Json *sidecar = doc.find("commguard");
    ASSERT_NE(sidecar, nullptr);
    EXPECT_EQ(sidecar->find("schema_version")->counter(),
              static_cast<Count>(metrics::kSchemaVersion));
    const Json *counts = sidecar->find("event_counts");
    ASSERT_NE(counts, nullptr);
    for (std::size_t k = 0; k < trace::numEventKinds; ++k) {
        const auto kind = static_cast<trace::EventKind>(k);
        const Json *declared = counts->find(trace::eventKindName(kind));
        ASSERT_NE(declared, nullptr) << trace::eventKindName(kind);
        EXPECT_EQ(declared->counter(), tr.count(kind));
    }

    // Tally the stream: with no drops, instants match the sidecar
    // exactly and queue depths render only as counter ("C") events.
    ASSERT_EQ(tr.dropped(), 0u)
        << "raise traceCapacityPerTrack for this test";
    Count instants = 0;
    Count depth_counters = 0;
    std::set<std::string> thread_names;
    for (const Json &event : events->arr()) {
        const std::string &ph = event.find("ph")->str();
        if (ph == "i") {
            ++instants;
            EXPECT_EQ(event.find("s")->str(), "t");
            EXPECT_NE(event.find("name")->str(), "queueDepth");
        } else if (ph == "C") {
            ++depth_counters;
            EXPECT_EQ(event.find("name")->str().rfind("queue:", 0), 0u);
        } else if (ph == "M" &&
                   event.find("name")->str() == "thread_name") {
            thread_names.insert(
                event.find("args")->find("name")->str());
        }
    }
    EXPECT_EQ(depth_counters, tr.count(trace::EventKind::QueueDepth));
    EXPECT_EQ(instants + depth_counters, tr.recorded());
    // One named thread per track (machine + one per core).
    EXPECT_EQ(thread_names.size(), tr.numTracks());
    EXPECT_TRUE(thread_names.count("machine"));
}

// ---------------------------------------------------------------------
// Streamed Perfetto text against a Json-tree reference writer.
// ---------------------------------------------------------------------

const char *
referenceAmStateName(std::uint8_t state)
{
    static const char *const names[] = {"RcvCmp", "ExpHdr", "DiscFr",
                                        "Disc", "Pdg"};
    if (state < 5)
        return names[state];
    return "?";
}

std::string
referenceQueueName(const trace::EventTrace &trace, std::uint16_t id)
{
    if (id < trace.queueNames().size())
        return trace.queueNames()[id];
    return "queue" + std::to_string(id);
}

/**
 * The trace document built as a Json tree, one object per event: the
 * straightforward writer perfettoTraceText() must match byte for byte
 * once dumped.
 */
Json
referencePerfettoJson(const trace::EventTrace &trace)
{
    Json events = Json::array();

    // Metadata: one process, one named thread per track.
    {
        Json meta = Json::object();
        meta["name"] = "process_name";
        meta["ph"] = "M";
        meta["pid"] = 1;
        Json args = Json::object();
        args["name"] = "commguard";
        meta["args"] = args;
        events.push(meta);
    }
    for (std::size_t i = 0; i < trace.numTracks(); ++i) {
        Json meta = Json::object();
        meta["name"] = "thread_name";
        meta["ph"] = "M";
        meta["pid"] = 1;
        meta["tid"] = static_cast<Count>(i + 1);
        Json args = Json::object();
        args["name"] = trace.track(i).name();
        meta["args"] = args;
        events.push(meta);
    }

    for (std::size_t i = 0; i < trace.numTracks(); ++i) {
        for (const trace::Event &event : trace.track(i).events()) {
            if (event.kind == trace::EventKind::QueueDepth) {
                Json counter = Json::object();
                counter["name"] =
                    "queue:" + referenceQueueName(trace, event.b);
                counter["ph"] = "C";
                counter["ts"] = event.seq;
                counter["pid"] = 1;
                counter["tid"] = static_cast<Count>(i + 1);
                Json args = Json::object();
                args["depth"] = static_cast<Count>(event.value);
                counter["args"] = args;
                events.push(counter);
                continue;
            }

            Json instant = Json::object();
            instant["name"] = trace::eventKindName(event.kind);
            instant["ph"] = "i";
            instant["s"] = "t";
            instant["ts"] = event.seq;
            instant["pid"] = 1;
            instant["tid"] = static_cast<Count>(i + 1);

            Json args = Json::object();
            args["cycle"] = event.time;
            args["slice"] = event.slice;
            switch (event.kind) {
            case trace::EventKind::ErrorInjected:
                args["reg"] = static_cast<Count>(event.a);
                args["bit"] = static_cast<Count>(event.b);
                break;
            case trace::EventKind::QueueCorrupt:
                args["queue"] = referenceQueueName(trace, event.b);
                break;
            case trace::EventKind::HeaderInsert:
                args["port"] = static_cast<Count>(event.a);
                args["queue"] = referenceQueueName(trace, event.b);
                args["frame"] = static_cast<Count>(event.value);
                break;
            case trace::EventKind::AmTransition:
                args["port"] = static_cast<Count>(event.a);
                args["from"] = referenceAmStateName(
                    static_cast<std::uint8_t>(event.b >> 8));
                args["to"] = referenceAmStateName(
                    static_cast<std::uint8_t>(event.b & 0xff));
                args["info"] = static_cast<Count>(event.value);
                break;
            case trace::EventKind::WatchdogTrip:
                args["nested"] = event.a != 0;
                break;
            case trace::EventKind::QueueBlock:
            case trace::EventKind::QueueUnblock:
                args["port"] = static_cast<Count>(event.a);
                args["pop"] = event.b != 0;
                break;
            case trace::EventKind::InvocationStart:
            case trace::EventKind::QmTimeout:
            case trace::EventKind::DeadlockBreak:
                args["value"] = static_cast<Count>(event.value);
                break;
            default:
                args["port"] = static_cast<Count>(event.a);
                break;
            }
            instant["args"] = args;
            events.push(instant);
        }
    }

    Json counts = Json::object();
    for (std::size_t k = 0; k < trace::numEventKinds; ++k) {
        const auto kind = static_cast<trace::EventKind>(k);
        counts[trace::eventKindName(kind)] = trace.count(kind);
    }
    Json tracks = Json::array();
    for (std::size_t i = 0; i < trace.numTracks(); ++i) {
        Json entry = Json::object();
        entry["name"] = trace.track(i).name();
        entry["recorded"] = trace.track(i).recorded();
        entry["dropped"] = trace.track(i).dropped();
        tracks.push(entry);
    }
    Json queues = Json::array();
    for (const std::string &name : trace.queueNames())
        queues.push(name);

    Json sidecar = Json::object();
    sidecar["schema_version"] = metrics::kSchemaVersion;
    sidecar["event_counts"] = counts;
    sidecar["recorded"] = trace.recorded();
    sidecar["dropped"] = trace.dropped();
    sidecar["tracks"] = tracks;
    sidecar["queues"] = queues;

    Json doc = Json::object();
    doc["traceEvents"] = events;
    doc["displayTimeUnit"] = "ms";
    doc["commguard"] = sidecar;
    return doc;
}

/** The streamed text equals the reference, parses back, validates. */
void
expectTextMatchesReference(const trace::EventTrace &trace)
{
    const std::string text = perfettoTraceText(trace);
    EXPECT_EQ(text, referencePerfettoJson(trace).dump());

    Json parsed;
    std::string error;
    ASSERT_TRUE(Json::parse(text, parsed, &error)) << error;
    EXPECT_EQ(parsed.dump(), text);
    EXPECT_EQ(perfettoTraceJson(trace), parsed);

    const SchemaErrors errors = checkPerfettoTrace(text);
    EXPECT_TRUE(errors.empty()) << "first error: " << errors.front();
}

TEST(PerfettoText, MatchesReferenceOnInjectedRunOfEveryMode)
{
    // Small enough to keep the tree reference fast; errors land in
    // every mode, and CommGuard pads and discards.
    const apps::App app = apps::makeFftApp(4);
    for (const protection::ProtectionMode mode :
         protection::ProtectionRegistry::instance().modes()) {
        SCOPED_TRACE(protection::protectionModeName(mode));
        const RunOutcome outcome = ExperimentConfig::app(app)
                                       .mode(mode)
                                       .mtbe(8'000)
                                       .seedIndex(0)
                                       .traceEvents(true)
                                       .run();
        ASSERT_NE(outcome.eventTrace, nullptr);
        EXPECT_GT(
            outcome.eventTrace->count(trace::EventKind::ErrorInjected), 0u);
        expectTextMatchesReference(*outcome.eventTrace);
    }
}

TEST(PerfettoText, AppendKeepsThePrefixAndAReusedBufferHoldsNoStaleBytes)
{
    const apps::App app = apps::makeFftApp(4);
    const auto traced = [&](double mtbe) {
        return ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(mtbe)
            .seedIndex(0)
            .traceEvents(true)
            .run();
    };
    const RunOutcome busy = traced(2'000);
    const RunOutcome quiet = traced(1'000'000);
    ASSERT_NE(busy.eventTrace, nullptr);
    ASSERT_NE(quiet.eventTrace, nullptr);
    const std::string busy_text = perfettoTraceText(*busy.eventTrace);
    const std::string quiet_text = perfettoTraceText(*quiet.eventTrace);
    ASSERT_GT(busy_text.size(), quiet_text.size());

    std::string buffer = "prefix";
    appendPerfettoTrace(buffer, *busy.eventTrace);
    EXPECT_EQ(buffer, "prefix" + busy_text);

    // A cleared buffer is how the sweep reuses the last batch's.
    buffer.clear();
    appendPerfettoTrace(buffer, *quiet.eventTrace);
    EXPECT_EQ(buffer, quiet_text);
}

TEST(PerfettoText, MatchesReferenceOnEveryKindAndAwkwardName)
{
    // A tiny ring so the flood track wraps; every kind recorded on a
    // track whose rings keep them all; names that need escaping, an
    // unregistered queue id and AM state codes past the known five.
    trace::EventTrace tr(32);
    trace::EventBuffer &core = tr.addTrack("core \"0\" \\ \x01\t");
    trace::EventBuffer &flood = tr.addTrack("flood");
    tr.addTrack("idle");
    int queue_a = 0, queue_b = 0;
    const std::uint16_t qa = tr.registerQueue(&queue_a, "q\"a\\\x1f\n");
    const std::uint16_t qb = tr.registerQueue(&queue_b, "edge_0_1");
    const std::uint16_t unregistered = trace::EventTrace::unknownQueue;
    const Cycle big = (Cycle{1} << 63) + 5;

    tr.beginSlice(3);
    for (std::size_t k = 0; k < trace::numEventKinds; ++k) {
        const auto kind = static_cast<trace::EventKind>(k);
        const auto a = static_cast<std::uint8_t>(k % 2);
        tr.record(core, big + k, kind, a,
                  static_cast<std::uint16_t>(k % 2 == 0 ? qa : qb),
                  static_cast<Word>(0xffffffffu - k));
    }
    tr.beginSlice(4);
    using trace::EventKind;
    tr.record(core, 1, EventKind::QueueCorrupt, 0, unregistered);
    tr.record(core, 2, EventKind::HeaderInsert, 3, unregistered, 9);
    tr.record(core, 3, EventKind::QueueDepth, 0, unregistered, 4);
    tr.record(core, 4, EventKind::AmTransition, 1, (5u << 8) | 0xffu, 7);
    tr.record(core, 5, EventKind::AmTransition, 1, (2u << 8) | 0u, 8);
    tr.record(core, 6, EventKind::WatchdogTrip, 1);
    tr.record(core, 7, EventKind::QueueBlock, 2, 1);
    for (int i = 0; i < 100; ++i)
        tr.record(flood, static_cast<Cycle>(i), EventKind::QueuePush,
                  static_cast<std::uint8_t>(i));

    ASSERT_EQ(core.dropped(), 0u);
    ASSERT_GT(tr.dropped(), 0u);
    for (std::size_t k = 0; k < trace::numEventKinds; ++k)
        ASSERT_GT(tr.count(static_cast<trace::EventKind>(k)), 0u);
    expectTextMatchesReference(tr);

    // And the degenerate trace: no tracks, no queues, no events.
    expectTextMatchesReference(trace::EventTrace(4));
}

// ---------------------------------------------------------------------
// Forensics: per-error realignment.
// ---------------------------------------------------------------------

/** Two-stage pass-through pipeline, 2 items per firing. */
streamit::StreamGraph
makeChain2()
{
    streamit::StreamGraph g;
    streamit::NodeId prev = -1;
    for (int i = 0; i < 2; ++i) {
        const std::string name = "N" + std::to_string(i);
        const streamit::NodeId node = g.addFilter(
            {name, {2}, {2}, [name](int firings) {
                 return kernels::buildPassthrough(name, 2, firings);
             }});
        if (prev >= 0)
            g.connect(prev, 0, node, 0);
        prev = node;
    }
    g.setExternalInput(0, 0);
    g.setExternalOutput(1, 0);
    return g;
}

TEST(Forensics, InjectedCorruptionRealignsWithinOneFrame)
{
    // Deterministic two-core pipeline with one hand-planted
    // communication corruption: junk items sitting in the N0->N1
    // queue before any header. With pad/discard repair the AM must
    // discard exactly the junk while hunting for the first frame
    // header (ExpHdr -> DiscFr -> RcvCmp), so the error's entire
    // realignment cost stays within one frame and the output stream
    // is untouched.
    const Count frame_scale = 4;
    const Count frame_items = 2 * frame_scale; // 2 items per firing
    const Count junk_items = 3;
    std::vector<Word> input(256);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<Word>(i + 1);

    streamit::LoadOptions options;
    options.mode = protection::ProtectionMode::CommGuard;
    options.injectErrors = false;
    options.frameScale = frame_scale;
    options.machine.traceEvents = true;
    streamit::LoadedApp app =
        streamit::loadGraph(makeChain2(), input, 128, options);
    const std::shared_ptr<trace::EventTrace> tr =
        app.machine->eventTrace();
    ASSERT_NE(tr, nullptr);

    QueueBase *edge = nullptr;
    for (const auto &queue : app.machine->queues())
        if (queue->name().rfind("edge_", 0) == 0)
            edge = queue.get();
    ASSERT_NE(edge, nullptr);
    for (Count i = 0; i < junk_items; ++i)
        ASSERT_EQ(edge->tryPush(makeItem(0xdead)), QueueOpStatus::Ok);
    // Log the corruption the way the machine's injector would, so the
    // forensics pass has an injection to join repairs against.
    trace::EventBuffer &injector_track = tr->addTrack("test-injector");
    tr->record(injector_track, 0, trace::EventKind::QueueCorrupt, 0,
               tr->queueId(edge));

    ASSERT_TRUE(app.run().completed);
    ASSERT_EQ(app.output(), input);
    ASSERT_EQ(tr->dropped(), 0u);

    const Json forensics = forensicsJson(*tr);
    EXPECT_EQ(forensics.find("queue_corruptions")->counter(), 1u);
    ASSERT_EQ(forensics.find("repaired")->counter(), 1u);
    EXPECT_EQ(forensics.find("unrepaired")->counter(), 0u);

    // The repair discarded exactly the junk, within one frame.
    const Json *discarded = forensics.find("items_discarded");
    EXPECT_EQ(discarded->find("max")->counter(), junk_items);
    EXPECT_LE(discarded->find("max")->counter(), frame_items);
    EXPECT_EQ(forensics.find("items_padded")->find("max")->counter(),
              0u);
    // Realignment completed by the first scheduler rounds: far inside
    // the first frame computation.
    EXPECT_LE(forensics.find("ttr_slices")->find("max")->counter(),
              1u);
}

TEST(Forensics, TracedSweepRecordCarriesForensicsAndConservation)
{
    // A register-flip run (errors can corrupt anything, including the
    // producer's control flow, so per-error cost is not one-frame
    // bounded here): the JSONL record must embed the forensics with a
    // clean conservation verdict and one time-to-realign sample per
    // repaired error.
    std::vector<Word> input(256);
    for (std::size_t i = 0; i < input.size(); ++i)
        input[i] = static_cast<Word>(i + 1);
    apps::App app;
    app.name = "chain2";
    app.graph = makeChain2();
    app.input = input;
    app.steadyIterations = 128;
    app.quality = [](const std::vector<Word> &) { return 0.0; };

    const ExperimentConfig config =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(2'000)
            .seedIndex(0)
            .frameScale(4)
            .traceEvents(true);
    const RunOutcome outcome = config.run();
    ASSERT_NE(outcome.eventTrace, nullptr);
    ASSERT_EQ(outcome.eventTrace->dropped(), 0u);

    const Json record = runRecordJson(config.descriptor(), outcome);
    const Json *forensics = record.find("forensics");
    ASSERT_NE(forensics, nullptr);
    EXPECT_GT(forensics->find("errors_injected")->counter(), 0u);
    EXPECT_GT(forensics->find("repaired")->counter(), 0u);
    ASSERT_NE(forensics->find("conservation_errors"), nullptr);
    EXPECT_TRUE(forensics->find("conservation_errors")->arr().empty())
        << forensics->find("conservation_errors")->dump();
    const Json *ttr = forensics->find("ttr_slices");
    ASSERT_NE(ttr, nullptr);
    EXPECT_EQ(ttr->find("count")->counter(),
              forensics->find("repaired")->counter());
}

TEST(Forensics, ErrorFreeRunReportsNothingToRepair)
{
    const apps::App app = apps::makeFftApp(16);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .noErrors()
            .traceEvents(true)
            .run();
    ASSERT_NE(outcome.eventTrace, nullptr);

    const Json forensics = forensicsJson(*outcome.eventTrace);
    EXPECT_EQ(forensics.find("errors_injected")->counter(), 0u);
    EXPECT_EQ(forensics.find("repaired")->counter(), 0u);
    EXPECT_EQ(forensics.find("repair_episodes")->counter(), 0u);
    EXPECT_TRUE(
        traceConservationErrors(*outcome.eventTrace, outcome.snapshot)
            .empty());
}

// ---------------------------------------------------------------------
// CG_TRACE_* environment knobs.
// ---------------------------------------------------------------------

TEST(TraceEnvOptions, ParsesKnobs)
{
    ::setenv("CG_TRACE_EVENTS", "1", 1);
    ::setenv("CG_TRACE_OUT", "my_traces", 1);
    const EnvOptions parsed = parseEnvOptions();
    ::unsetenv("CG_TRACE_EVENTS");
    ::unsetenv("CG_TRACE_OUT");

    EXPECT_TRUE(parsed.traceEvents);
    EXPECT_EQ(parsed.traceOut, "my_traces");
    EXPECT_EQ(parseEnvOptions().traceOut, "bench_out");
}

TEST(TraceEnvOptionsDeathTest, TraceOutWithoutTraceEventsIsFatal)
{
    EXPECT_EXIT(
        {
            ::setenv("CG_TRACE_OUT", "somewhere", 1);
            ::unsetenv("CG_TRACE_EVENTS");
            parseEnvOptions();
        },
        ::testing::ExitedWithCode(1), "CG_TRACE_OUT");
}

TEST(TraceEnvOptionsDeathTest, EmptyTraceOutIsFatal)
{
    EXPECT_EXIT(
        {
            ::setenv("CG_TRACE_EVENTS", "1", 1);
            ::setenv("CG_TRACE_OUT", "", 1);
            parseEnvOptions();
        },
        ::testing::ExitedWithCode(1), "must name a directory");
}

} // namespace
} // namespace commguard::sim
