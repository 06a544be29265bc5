#include "sim/trace_export.hh"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <unordered_map>

#include "common/logging.hh"
#include "queue/queue_word.hh"

namespace commguard::sim
{

namespace
{

const char *
amStateName(std::uint8_t state)
{
    static const char *const names[] = {"RcvCmp", "ExpHdr", "DiscFr",
                                        "Disc", "Pdg"};
    if (state < 5)
        return names[state];
    return "?";
}

constexpr std::uint8_t kAmRcvCmp = 0;
constexpr std::uint8_t kAmPdg = 4;

std::string
queueName(const trace::EventTrace &trace, std::uint16_t id)
{
    if (id < trace.queueNames().size())
        return trace.queueNames()[id];
    return "queue" + std::to_string(id);
}

/** All retained events over all tracks, tagged with their track. */
struct TaggedEvent
{
    trace::Event event;
    std::size_t track;
};

std::vector<TaggedEvent>
mergedEvents(const trace::EventTrace &trace)
{
    std::vector<TaggedEvent> merged;
    for (std::size_t i = 0; i < trace.numTracks(); ++i)
        for (const trace::Event &event : trace.track(i).events())
            merged.push_back({event, i});
    std::sort(merged.begin(), merged.end(),
              [](const TaggedEvent &a, const TaggedEvent &b) {
                  return a.event.seq < b.event.seq;
              });
    return merged;
}

/** Distribution of one per-repair quantity as {max, mean, histogram}. */
Json
distributionJson(const std::vector<Count> &samples)
{
    Json dist = Json::object();
    Count max = 0;
    double sum = 0.0;
    std::map<Count, Count> histogram;
    for (Count sample : samples) {
        max = std::max(max, sample);
        sum += static_cast<double>(sample);
        ++histogram[sample];
    }
    dist["count"] = static_cast<Count>(samples.size());
    dist["max"] = max;
    dist["mean"] =
        samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
    Json bins = Json::array();
    for (const auto &[value, count] : histogram) {
        Json bin = Json::array();
        bin.push(value);
        bin.push(count);
        bins.push(bin);
    }
    dist["histogram"] = bins;
    return dist;
}

} // namespace

Json
perfettoTraceJson(const trace::EventTrace &trace)
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
                // Queue depths render as Perfetto counter tracks, not
                // instants: one series per queue.
                Json counter = Json::object();
                counter["name"] = "queue:" + queueName(trace, event.b);
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
            // Global seq is the only clock comparable across tracks;
            // the core's cycle stamp rides in args.
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
                args["queue"] = queueName(trace, event.b);
                break;
            case trace::EventKind::HeaderInsert:
                args["port"] = static_cast<Count>(event.a);
                args["queue"] = queueName(trace, event.b);
                args["frame"] = static_cast<Count>(event.value);
                break;
            case trace::EventKind::AmTransition:
                args["port"] = static_cast<Count>(event.a);
                args["from"] = amStateName(
                    static_cast<std::uint8_t>(event.b >> 8));
                args["to"] = amStateName(
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

    // Sidecar block: exact counts (drop-proof) plus track/queue shape,
    // so checkers need not re-derive anything from the event stream.
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

Json
forensicsJson(const trace::EventTrace &trace)
{
    const std::vector<TaggedEvent> merged = mergedEvents(trace);

    // A repair episode: one contiguous burst of AM repair actions on
    // one (track, port) key, closed by the AM transitioning back to
    // RcvCmp. Episodes never closed by a transition (e.g. timeout pads
    // issued while the AM already sits in RcvCmp) end at their last
    // repair action.
    struct Episode
    {
        Count startSeq = 0;
        Count startSlice = 0;
        Count endSeq = 0;
        Count endSlice = 0;
        Count pads = 0;
        Count itemsDiscarded = 0;
        Count headersDiscarded = 0;
    };
    struct Repair
    {
        Count seq;
        std::size_t episode;
    };
    struct Injection
    {
        Count seq;
        Count slice;
    };

    std::vector<Episode> episodes;
    std::vector<Repair> repairs;       // seq-sorted by construction
    std::vector<Injection> injections; // seq-sorted by construction
    std::unordered_map<std::uint32_t, std::size_t> open;
    std::unordered_map<std::uint32_t, bool> eocMode;
    Count eocPads = 0;
    Count queueCorruptions = 0;

    const auto keyOf = [](const TaggedEvent &e) {
        return static_cast<std::uint32_t>(e.track << 8) |
               static_cast<std::uint32_t>(e.event.a);
    };
    const auto repairAction = [&](const TaggedEvent &e) {
        const std::uint32_t key = keyOf(e);
        auto it = open.find(key);
        if (it == open.end()) {
            Episode episode;
            episode.startSeq = e.event.seq;
            episode.startSlice = e.event.slice;
            episodes.push_back(episode);
            it = open.emplace(key, episodes.size() - 1).first;
        }
        Episode &episode = episodes[it->second];
        episode.endSeq = e.event.seq;
        episode.endSlice = e.event.slice;
        repairs.push_back({e.event.seq, it->second});
        return it->second;
    };

    for (const TaggedEvent &e : merged) {
        switch (e.event.kind) {
        case trace::EventKind::ErrorInjected:
            injections.push_back({e.event.seq, e.event.slice});
            break;
        case trace::EventKind::QueueCorrupt:
            injections.push_back({e.event.seq, e.event.slice});
            ++queueCorruptions;
            break;
        case trace::EventKind::AmPad:
            // End-of-computation padding is the AM draining after its
            // producer finished — normal shutdown, not a repair.
            if (eocMode[keyOf(e)])
                ++eocPads;
            else
                episodes[repairAction(e)].pads += 1;
            break;
        case trace::EventKind::AmDiscardItem:
            episodes[repairAction(e)].itemsDiscarded += 1;
            break;
        case trace::EventKind::AmDiscardHeader:
            episodes[repairAction(e)].headersDiscarded += 1;
            break;
        case trace::EventKind::AmTransition: {
            const std::uint32_t key = keyOf(e);
            const auto to = static_cast<std::uint8_t>(e.event.b & 0xff);
            eocMode[key] =
                to == kAmPdg && e.event.value == endOfComputationId;
            if (to == kAmRcvCmp) {
                auto it = open.find(key);
                if (it != open.end()) {
                    episodes[it->second].endSeq = e.event.seq;
                    episodes[it->second].endSlice = e.event.slice;
                    open.erase(it);
                }
            }
            break;
        }
        default:
            break;
        }
    }

    // Join every injection to the first repair action after it; the
    // repair's whole episode is the error's realignment cost.
    std::vector<Count> ttrSlices;
    std::vector<Count> itemsPadded;
    std::vector<Count> itemsDiscarded;
    Count repaired = 0;
    for (const Injection &injection : injections) {
        const auto it = std::upper_bound(
            repairs.begin(), repairs.end(), injection.seq,
            [](Count seq, const Repair &r) { return seq < r.seq; });
        if (it == repairs.end())
            continue;
        ++repaired;
        const Episode &episode = episodes[it->episode];
        ttrSlices.push_back(episode.endSlice >= injection.slice
                                ? episode.endSlice - injection.slice
                                : 0);
        itemsPadded.push_back(episode.pads);
        itemsDiscarded.push_back(episode.itemsDiscarded +
                                 episode.headersDiscarded);
    }

    Json forensics = Json::object();
    forensics["errors_injected"] =
        trace.count(trace::EventKind::ErrorInjected);
    forensics["queue_corruptions"] =
        trace.count(trace::EventKind::QueueCorrupt);
    forensics["repaired"] = repaired;
    forensics["unrepaired"] =
        static_cast<Count>(injections.size()) - repaired;
    forensics["repair_episodes"] = static_cast<Count>(episodes.size());
    forensics["eoc_pads"] = eocPads;
    forensics["events_dropped"] = trace.dropped();
    forensics["ttr_slices"] = distributionJson(ttrSlices);
    forensics["items_padded"] = distributionJson(itemsPadded);
    forensics["items_discarded"] = distributionJson(itemsDiscarded);
    return forensics;
}

std::vector<std::string>
traceConservationErrors(const trace::EventTrace &trace,
                        const metrics::MetricSnapshot &snapshot)
{
    std::vector<std::string> errors;
    const auto check = [&](trace::EventKind kind, Count counters) {
        const Count events = trace.count(kind);
        if (events != counters) {
            errors.push_back(std::string(trace::eventKindName(kind)) +
                             ": events " + std::to_string(events) +
                             " != counters " + std::to_string(counters));
        }
    };

    using trace::EventKind;
    check(EventKind::InvocationStart, snapshot.total("invocations"));
    check(EventKind::ErrorInjected, snapshot.total("registerFlips"));
    check(EventKind::QueuePush, snapshot.total("queuePushes"));
    check(EventKind::QueuePop, snapshot.total("queuePops"));
    check(EventKind::PopTimeout, snapshot.total("popTimeouts"));
    check(EventKind::PushTimeout, snapshot.total("pushTimeouts"));
    check(EventKind::WatchdogTrip,
          snapshot.total("scopeWatchdogTrips") +
              snapshot.total("nestedScopeTrips"));
    check(EventKind::AmPad, snapshot.total("paddedItems"));
    check(EventKind::AmDiscardItem, snapshot.total("discardedItems"));
    check(EventKind::AmDiscardHeader,
          snapshot.total("discardedHeaders"));
    check(EventKind::HeaderInsert, snapshot.total("headerStores"));
    check(EventKind::HeaderDropped,
          snapshot.total("headerDropsOnTimeout"));
    check(EventKind::QueueCorrupt,
          snapshot.total("headCorruptions") +
              snapshot.total("tailCorruptions") +
              snapshot.total("itemCorruptions"));
    check(EventKind::QmTimeout, snapshot.get("machine/timeoutsFired"));
    check(EventKind::DeadlockBreak,
          snapshot.get("machine/deadlockBreaks"));
    return errors;
}

SchemaErrors
forensicsErrors(const Json &forensics)
{
    static constexpr SchemaMember kCounts[] = {
        {"errors_injected", JsonKind::Count}, {"repaired", JsonKind::Count},
        {"queue_corruptions", JsonKind::Count}, {"eoc_pads", JsonKind::Count},
        {"repair_episodes", JsonKind::Count},
        {"unrepaired", JsonKind::Count},
        {"events_dropped", JsonKind::Count},
    };
    static constexpr SchemaMember kDistributionMembers[] = {
        {"count", JsonKind::Count}, {"max", JsonKind::Count},
        {"mean", JsonKind::Number}, {"histogram", JsonKind::Array},
    };

    if (!forensics.isObject())
        return {"not an object"};
    SchemaErrors errors;
    requireMembers(forensics, kCounts, errors);
    for (const char *key :
         {"ttr_slices", "items_padded", "items_discarded"}) {
        const Json *distribution =
            typedMember(forensics, {key, JsonKind::Object}, errors);
        if (distribution == nullptr)
            continue;
        SchemaErrors distribution_errors;
        if (const auto fields = requireMembers(
                *distribution, kDistributionMembers, distribution_errors)) {
            const auto &[count, max, mean, histogram] = *fields;
            for (const Json &bin : histogram->arr()) {
                if (!bin.isArray() || bin.arr().size() != 2) {
                    distribution_errors.push_back(
                        "histogram bin is not [value, count]");
                    break;
                }
            }
        }
        appendErrors(errors, key, distribution_errors);
    }
    const Json *conservation = typedMember(
        forensics, {"conservation_errors", JsonKind::Array}, errors);
    if (conservation != nullptr && !conservation->arr().empty())
        errors.push_back("conservation violated: " + conservation->dump());
    return errors;
}

SchemaErrors
checkPerfettoTrace(const std::string &text)
{
    SchemaErrors errors;
    const std::optional<Json> document = parseObject(text, errors);
    if (!document)
        return errors;
    static constexpr SchemaMember kDocumentMembers[] = {
        {"traceEvents", JsonKind::Array},
        {"commguard", JsonKind::Object},
    };
    const auto members =
        requireMembers(*document, kDocumentMembers, errors);
    if (!members)
        return errors;
    const auto &[events, sidecar] = *members;

    checkVersion(*sidecar, "schema_version", metrics::kSchemaVersion,
                 errors);
    const Json *counts =
        typedMember(*sidecar, {"event_counts", JsonKind::Object}, errors);
    const Json *dropped =
        typedMember(*sidecar, {"dropped", JsonKind::Count}, errors);
    if (counts != nullptr)
        checkCountMembers(*counts, errors);
    if (!errors.empty())
        return errors;

    // Tally the stream: instant events per kind name, counter events
    // as queueDepth samples. Metadata events only need ph and name.
    static constexpr SchemaMember kEventMembers[] = {
        {"ph", JsonKind::String},
        {"name", JsonKind::Any},
    };
    std::map<std::string, Count> tallied;
    Count depth_samples = 0;
    for (std::size_t i = 0; i < events->arr().size(); ++i) {
        SchemaErrors event_errors;
        if (const auto fields = requireMembers(events->arr()[i],
                                               kEventMembers, event_errors)) {
            const auto &[ph, name] = *fields;
            if (ph->str() == "C")
                ++depth_samples;
            else if (ph->str() == "i" && name->isString())
                ++tallied[name->str()];
            else if (ph->str() == "i")
                event_errors.push_back("instant event name is not a "
                                       "string: " + name->dump());
        }
        if (!event_errors.empty()) {
            appendErrors(errors, "traceEvents[" + std::to_string(i) + "]",
                         event_errors);
            return errors;
        }
    }

    // Retained records never exceed the exact counts; with no drops
    // they must match exactly.
    const bool exact = dropped->counter() == 0;
    for (const auto &[kind, declared] : counts->obj()) {
        const Count expected = declared.counter();
        const Count seen =
            kind == "queueDepth" ? depth_samples : tallied[kind];
        if (seen > expected || (exact && seen != expected)) {
            errors.push_back("event '" + kind + "': stream has " +
                             std::to_string(seen) +
                             ", event_counts says " +
                             std::to_string(expected) +
                             (exact ? " (no drops)" : ""));
        }
    }
    for (const auto &[kind, seen] : tallied) {
        if (counts->find(kind) == nullptr)
            errors.push_back("stream event '" + kind +
                             "' missing from event_counts");
    }
    return errors;
}

void
writeTraceFile(const std::string &path, const trace::EventTrace &trace)
{
    std::ofstream out(path);
    if (!out) {
        warn("trace_export: cannot open " + path + " for writing");
        return;
    }
    perfettoTraceJson(trace).write(out);
    out << '\n';
}

void
writeTraceFile(const std::string &path, const std::string &serialized)
{
    std::ofstream out(path);
    if (!out) {
        warn("trace_export: cannot open " + path + " for writing");
        return;
    }
    out << serialized << '\n';
}

} // namespace commguard::sim
