#include "sim/trace_export.hh"

#include <algorithm>
#include <array>
#include <cstdint>
#include <fstream>
#include <map>
#include <string_view>
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

/**
 * appendPerfettoTrace's reserve per retained event; one instant with its
 * args takes about 100-120 bytes. Each track, queue and the sidecar's
 * fixed members are budgeted as about one event each.
 */
constexpr std::size_t kEventBytes = 128;

std::string
queueName(const trace::EventTrace &trace, std::uint16_t id)
{
    if (id < trace.queueNames().size())
        return trace.queueNames()[id];
    return "queue" + std::to_string(id);
}

/** A retained event tagged with its track. */
struct TaggedEvent
{
    trace::Event event;
    std::size_t track;
};

/** Is @p kind one of the events forensicsJson's join reads? */
bool
joinedByForensics(trace::EventKind kind)
{
    switch (kind) {
    case trace::EventKind::ErrorInjected:
    case trace::EventKind::QueueCorrupt:
    case trace::EventKind::AmPad:
    case trace::EventKind::AmDiscardItem:
    case trace::EventKind::AmDiscardHeader:
    case trace::EventKind::AmTransition:
        return true;
    default:
        return false;
    }
}

/** The retained events the forensics join reads, in seq order. */
std::vector<TaggedEvent>
mergedEvents(const trace::EventTrace &trace)
{
    std::vector<TaggedEvent> merged;
    for (std::size_t i = 0; i < trace.numTracks(); ++i)
        trace.track(i).forEachEvent([&](const trace::Event &event) {
            if (joinedByForensics(event.kind))
                merged.push_back({event, i});
        });
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

/** Event kind names as JSON literals, in Json's object-key order. */
struct KindNames
{
    std::array<std::string, trace::numEventKinds> quoted; //!< By kind.
    std::array<trace::EventKind, trace::numEventKinds> keyOrder;
};

const KindNames &
kindNames()
{
    static const KindNames names = [] {
        KindNames built;
        for (std::size_t k = 0; k < trace::numEventKinds; ++k) {
            const auto kind = static_cast<trace::EventKind>(k);
            appendJsonString(built.quoted[k], trace::eventKindName(kind));
            built.keyOrder[k] = kind;
        }
        std::sort(built.keyOrder.begin(), built.keyOrder.end(),
                  [](trace::EventKind a, trace::EventKind b) {
                      return std::string_view(trace::eventKindName(a)) <
                             std::string_view(trace::eventKindName(b));
                  });
        return built;
    }();
    return names;
}

/**
 * One trace's track and queue names as JSON literals, escaped once
 * per trace. Each registered queue has two: its name (an args value)
 * and its "queue:<name>" counter series.
 */
struct QuotedNames
{
    explicit QuotedNames(const trace::EventTrace &trace) : trace(trace)
    {
        for (std::size_t i = 0; i < trace.numTracks(); ++i)
            appendJsonString(tracks.emplace_back(), trace.track(i).name());
        for (const std::string &name : trace.queueNames()) {
            appendJsonString(queues.emplace_back(), name);
            appendJsonString(series.emplace_back(), "queue:" + name);
        }
    }

    /** Queue @p id's name, or its counter series when @p as_series. */
    void
    appendQueue(std::string &out, std::uint16_t id, bool as_series) const
    {
        const std::vector<std::string> &quoted =
            as_series ? series : queues;
        if (id < quoted.size())
            out += quoted[id];
        else
            appendJsonString(out, (as_series ? "queue:" : "") +
                                      queueName(trace, id));
    }

    const trace::EventTrace &trace;
    std::vector<std::string> tracks;
    std::vector<std::string> queues;
    std::vector<std::string> series;
};

/** Append @p key (with its JSON punctuation) and then @p value. */
void
appendCount(std::string &out, const char *key, Count value)
{
    out += key;
    appendJsonCount(out, value);
}

/** An instant event's args object, members in Json's key order. */
void
appendInstantArgs(std::string &out, const trace::Event &event,
                  const QuotedNames &names)
{
    switch (event.kind) {
    case trace::EventKind::ErrorInjected:
        appendCount(out, R"({"bit":)", event.b);
        appendCount(out, R"(,"cycle":)", event.time);
        appendCount(out, R"(,"reg":)", event.a);
        appendCount(out, R"(,"slice":)", event.slice);
        break;
    case trace::EventKind::QueueCorrupt:
        appendCount(out, R"({"cycle":)", event.time);
        out += R"(,"queue":)";
        names.appendQueue(out, event.b, false);
        appendCount(out, R"(,"slice":)", event.slice);
        break;
    case trace::EventKind::HeaderInsert:
        appendCount(out, R"({"cycle":)", event.time);
        appendCount(out, R"(,"frame":)", event.value);
        appendCount(out, R"(,"port":)", event.a);
        out += R"(,"queue":)";
        names.appendQueue(out, event.b, false);
        appendCount(out, R"(,"slice":)", event.slice);
        break;
    case trace::EventKind::AmTransition:
        appendCount(out, R"({"cycle":)", event.time);
        out += R"(,"from":)";
        appendJsonString(
            out, amStateName(static_cast<std::uint8_t>(event.b >> 8)));
        appendCount(out, R"(,"info":)", event.value);
        appendCount(out, R"(,"port":)", event.a);
        appendCount(out, R"(,"slice":)", event.slice);
        out += R"(,"to":)";
        appendJsonString(
            out, amStateName(static_cast<std::uint8_t>(event.b & 0xff)));
        break;
    case trace::EventKind::WatchdogTrip:
        appendCount(out, R"({"cycle":)", event.time);
        out += event.a != 0 ? R"(,"nested":true)" : R"(,"nested":false)";
        appendCount(out, R"(,"slice":)", event.slice);
        break;
    case trace::EventKind::QueueBlock:
    case trace::EventKind::QueueUnblock:
        appendCount(out, R"({"cycle":)", event.time);
        out += event.b != 0 ? R"(,"pop":true)" : R"(,"pop":false)";
        appendCount(out, R"(,"port":)", event.a);
        appendCount(out, R"(,"slice":)", event.slice);
        break;
    case trace::EventKind::InvocationStart:
    case trace::EventKind::QmTimeout:
    case trace::EventKind::DeadlockBreak:
        appendCount(out, R"({"cycle":)", event.time);
        appendCount(out, R"(,"slice":)", event.slice);
        appendCount(out, R"(,"value":)", event.value);
        break;
    default:
        appendCount(out, R"({"cycle":)", event.time);
        appendCount(out, R"(,"port":)", event.a);
        appendCount(out, R"(,"slice":)", event.slice);
        break;
    }
    out += '}';
}

} // namespace

void
appendPerfettoTrace(std::string &out, const trace::EventTrace &trace)
{
    const KindNames &kinds = kindNames();
    const QuotedNames names(trace);

    const Count retained = trace.recorded() - trace.dropped();
    out.reserve(out.size() +
                kEventBytes * (retained + trace.numTracks() +
                               trace.queueNames().size() + 8));

    // Sidecar block: exact counts (drop-proof) plus track/queue shape,
    // so checkers need not re-derive anything from the event stream.
    appendCount(out, R"({"commguard":{"dropped":)", trace.dropped());
    out += R"(,"event_counts":{)";
    for (std::size_t k = 0; k < trace::numEventKinds; ++k) {
        const trace::EventKind kind = kinds.keyOrder[k];
        if (k > 0)
            out += ',';
        out += kinds.quoted[static_cast<std::size_t>(kind)];
        appendCount(out, ":", trace.count(kind));
    }
    out += R"(},"queues":[)";
    for (std::size_t q = 0; q < names.queues.size(); ++q) {
        if (q > 0)
            out += ',';
        out += names.queues[q];
    }
    appendCount(out, R"(],"recorded":)", trace.recorded());
    appendCount(out, R"(,"schema_version":)",
                static_cast<Count>(metrics::kSchemaVersion));
    out += R"(,"tracks":[)";
    for (std::size_t i = 0; i < trace.numTracks(); ++i) {
        appendCount(out, i > 0 ? R"(,{"dropped":)" : R"({"dropped":)",
                    trace.track(i).dropped());
        out += R"(,"name":)";
        out += names.tracks[i];
        appendCount(out, R"(,"recorded":)", trace.track(i).recorded());
        out += '}';
    }
    out += R"(]},"displayTimeUnit":"ms","traceEvents":[)";

    // Metadata: one process, one named thread per track.
    out += R"({"args":{"name":"commguard"},"name":"process_name",)"
           R"("ph":"M","pid":1})";
    for (std::size_t i = 0; i < trace.numTracks(); ++i) {
        out += R"(,{"args":{"name":)";
        out += names.tracks[i];
        appendCount(out,
                    R"(},"name":"thread_name","ph":"M","pid":1,"tid":)",
                    i + 1);
        out += '}';
    }

    for (std::size_t i = 0; i < trace.numTracks(); ++i) {
        trace.track(i).forEachEvent([&](const trace::Event &event) {
            if (event.kind == trace::EventKind::QueueDepth) {
                // Queue depths render as Perfetto counter tracks, not
                // instants: one series per queue.
                appendCount(out, R"(,{"args":{"depth":)", event.value);
                out += R"(},"name":)";
                names.appendQueue(out, event.b, true);
                out += R"(,"ph":"C","pid":1)";
            } else {
                // Global seq is the only clock comparable across
                // tracks; the core's cycle stamp rides in args.
                out += R"(,{"args":)";
                appendInstantArgs(out, event, names);
                out += R"(,"name":)";
                out += kinds.quoted[static_cast<std::size_t>(event.kind)];
                out += R"(,"ph":"i","pid":1,"s":"t")";
            }
            appendCount(out, R"(,"tid":)", i + 1);
            appendCount(out, R"(,"ts":)", event.seq);
            out += '}';
        });
    }
    out += "]}";
}

std::string
perfettoTraceText(const trace::EventTrace &trace)
{
    std::string out;
    appendPerfettoTrace(out, trace);
    return out;
}

Json
perfettoTraceJson(const trace::EventTrace &trace)
{
    Json document;
    std::string error;
    if (!Json::parse(perfettoTraceText(trace), document, &error))
        panic("trace_export: streamed trace does not parse: " + error);
    return document;
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
