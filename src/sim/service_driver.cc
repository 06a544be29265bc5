#include "sim/service_driver.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/metrics.hh"
#include "queue/queue_word.hh"
#include "sim/protection.hh"

namespace commguard::sim
{

namespace
{

/** splitmix64 finalizer: the same avalanche the loader's per-core
 *  seed derivation uses. */
std::uint64_t
mix64(std::uint64_t x)
{
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * The arrival process RNG. Integer-only (no libm, no doubles) so the
 * schedule is bit-stable across platforms and builds.
 */
struct ArrivalRng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state += 0x9e3779b97f4a7c15ull;
        return mix64(state);
    }

    /** Uniform in [1, 2*mean - 1]: mean @p mean, never zero. */
    Count
    aroundMean(Count mean)
    {
        if (mean <= 1)
            return 1;
        return 1 + static_cast<Count>(next() % (2 * mean - 1));
    }
};

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::string
hex64(std::uint64_t value)
{
    static const char digits[] = "0123456789abcdef";
    std::string out(16, '0');
    for (int i = 15; i >= 0; --i) {
        out[static_cast<std::size_t>(i)] = digits[value & 0xf];
        value >>= 4;
    }
    return out;
}

const char *
eventKindName(ServiceEvent::Kind kind)
{
    return kind == ServiceEvent::Kind::MtbeDegrade ? "mtbe_degrade"
                                                   : "remap";
}

} // namespace

ServiceDriver::ServiceDriver(ServiceConfig config)
    : _config(std::move(config))
{
    if (_config.app == nullptr)
        fatal("service: config.app must be set");
    if (_config.totalFrames == 0)
        fatal("service: totalFrames must be positive");
    if (_config.load.frameScale != 1 ||
        !_config.load.perNodeFrameScale.empty()) {
        fatal("service: streaming requires the uniform frame domain "
              "(frameScale == 1, no per-node scales)");
    }
    if (_config.load.frameAlignedOutput)
        fatal("service: frameAlignedOutput is a batch-output device; "
              "the streaming collector drains incrementally");
    if (_config.meanBurstFrames == 0 || _config.meanGapSlices == 0)
        fatal("service: meanBurstFrames and meanGapSlices must be "
              "positive");
    if (_config.maxBacklogFrames == 0)
        fatal("service: maxBacklogFrames must be positive");
    if (_config.snapshotEveryFrames == 0)
        fatal("service: snapshotEveryFrames must be positive");
    for (const ServiceEvent &event : _config.events) {
        if (event.kind == ServiceEvent::Kind::MtbeDegrade &&
            !(event.factor > 0.0))
            fatal("service: degrade factor must be positive");
    }
    // Deterministic firing order regardless of construction order.
    std::stable_sort(_config.events.begin(), _config.events.end(),
                     [](const ServiceEvent &a, const ServiceEvent &b) {
                         return a.atFrame < b.atFrame;
                     });
}

ServiceOutcome
ServiceDriver::run()
{
    const apps::App &application = *_config.app;

    streamit::LoadOptions load = _config.load;
    load.streamingSource = true;

    streamit::LoadedApp app =
        streamit::loadGraph(application.graph, application.input,
                            _config.totalFrames, load);
    Multicore &machine = *app.machine;
    const int num_nodes = application.graph.numNodes();
    const Count items_per_frame = app.frames.inputItemsPerFrame;

    ServiceOutcome outcome;
    outcome.outputChecksum = kFnvOffset;

    // --------------------------------------------------------------
    // Placement state: logical node n executes on physical slot
    // (n + rotation) % num_nodes; slots carry the heterogeneous MTBE
    // table and accumulate degradation events.
    // --------------------------------------------------------------
    std::vector<double> slot_mtbe(
        static_cast<std::size_t>(num_nodes), load.mtbe);
    if (!load.perCoreMtbe.empty())
        slot_mtbe = load.perCoreMtbe;
    int rotation = 0;
    std::uint64_t epoch = 0;
    auto reconfigure_node = [&](int n) {
        ErrorInjector::Config injector;
        injector.enabled = load.injectErrors;
        const int slot = (n + rotation) % num_nodes;
        injector.mtbe = slot_mtbe[static_cast<std::size_t>(slot)];
        injector.flipAllRegisters = load.flipAllRegisters;
        injector.seed = mix64(
            load.seed +
            0x9e3779b97f4a7c15ull *
                (epoch * 4096 + static_cast<std::uint64_t>(n) + 1));
        machine.cores()[static_cast<std::size_t>(n)]->configureInjector(
            injector);
    };

    // --------------------------------------------------------------
    // JSONL stream. Every record carries the schema version; the
    // whole stream is a pure function of the config (virtual time
    // only), so it is bitwise reproducible.
    // --------------------------------------------------------------
    auto append_record = [&outcome](const Json &record) {
        outcome.jsonl += record.dump();
        outcome.jsonl += '\n';
    };

    {
        Json per_core = Json::array();
        for (double m : slot_mtbe)
            per_core.arr().emplace_back(m);
        Json events = Json::array();
        for (const ServiceEvent &event : _config.events) {
            Json e = Json::object();
            e["kind"] = Json(eventKindName(event.kind));
            e["at_frame"] = Json(event.atFrame);
            if (event.kind == ServiceEvent::Kind::MtbeDegrade) {
                e["core"] = Json(event.core);
                e["factor"] = Json(event.factor);
            } else {
                e["rotation"] = Json(event.rotation);
            }
            events.push(std::move(e));
        }
        Json meta = Json::object();
        meta["type"] = Json("meta");
        meta["service_schema_version"] = Json(kServiceSchemaVersion);
        meta["app"] = Json(application.name);
        meta["protection_mode"] =
            Json(protection::protectionModeName(load.mode));
        meta["seed"] = Json(Count{load.seed});
        meta["arrival_seed"] = Json(Count{_config.arrivalSeed});
        meta["total_frames"] = Json(_config.totalFrames);
        meta["mean_burst_frames"] = Json(_config.meanBurstFrames);
        meta["mean_gap_slices"] = Json(_config.meanGapSlices);
        meta["max_backlog_frames"] = Json(_config.maxBacklogFrames);
        meta["snapshot_every_frames"] =
            Json(_config.snapshotEveryFrames);
        meta["per_core_mtbe"] = std::move(per_core);
        meta["events"] = std::move(events);
        append_record(meta);
    }

    // --------------------------------------------------------------
    // Streaming source: the reliable input device frames each burst
    // through the loader's SourceFramer, so the appended words are the
    // ones a batch load would pre-fill (docs/SERVICE.md). The input
    // repeats when the run outlasts it.
    // --------------------------------------------------------------
    SourceQueue &source = *app.source;
    CollectorQueue &collector = *app.collector;
    std::vector<Word> burst_values;
    std::vector<QueueWord> frame_words;
    std::size_t input_cursor = 0;
    const std::vector<Word> &input = application.input;
    Count admitted = 0;
    auto admit_frames = [&](Count frames) {
        burst_values.resize(frames * items_per_frame);
        for (Word &value : burst_values) {
            value = input.empty() ? 0
                                  : input[input_cursor++ % input.size()];
        }
        frame_words.clear();
        app.sourceFramer.appendFrames(burst_values.data(), frames,
                                      frame_words);
        admitted += frames;
        if (admitted == _config.totalFrames)
            app.sourceFramer.finish(frame_words);
        source.append(frame_words.data(), frame_words.size());
        outcome.maxBacklogWords =
            std::max(outcome.maxBacklogWords, source.size());
    };

    auto min_frames_completed = [&]() -> Count {
        Count completed = _config.totalFrames;
        for (const auto &runtime : machine.runtimes())
            completed = std::min(completed, runtime->framesCompleted());
        return completed;
    };

    auto drain_collector = [&]() {
        const std::vector<Word> items = collector.takeItems();
        outcome.outputItems += items.size();
        for (Word item : items) {
            outcome.outputChecksum =
                (outcome.outputChecksum ^ item) * kFnvPrime;
        }
    };

    // --------------------------------------------------------------
    // Observability: each snapshot diffs the run's metric registry
    // against the previous snapshot. The typed interval counts use the
    // batch definitions, so the summary (read off the last snapshot)
    // counts errors and repairs exactly as a batch run does.
    // --------------------------------------------------------------
    metrics::MetricSnapshot last_snapshot;
    Count slice = 0;

    auto emit_snapshot = [&](Count completed) {
        metrics::MetricSnapshot current = machine.metrics().snapshot();
        drain_collector();

        Json deltas = Json::object();
        for (const auto &[name, value] : current.counters()) {
            const Count delta = value - last_snapshot.get(name);
            if (delta != 0)
                deltas[name] = Json(delta);
        }

        Json record = Json::object();
        record["type"] = Json("snapshot");
        record["service_schema_version"] = Json(kServiceSchemaVersion);
        record["index"] = Json(outcome.snapshots);
        record["slice"] = Json(slice);
        record["machine_round"] = Json(machine.schedulerRound());
        record["cycles"] = Json(Cycle{machine.totalCycles()});
        record["frames_admitted"] = Json(admitted);
        record["frames_completed"] = Json(completed);
        record["backlog_words"] = Json(Count{source.size()});
        record["output_items"] = Json(outcome.outputItems);
        record["deltas"] = std::move(deltas);
        record["errors_injected"] =
            Json(current.total("errorsInjected") -
                 last_snapshot.total("errorsInjected"));
        record["repairs"] = Json(protection::repairTotal(current) -
                                 protection::repairTotal(last_snapshot));
        append_record(record);
        ++outcome.snapshots;
        last_snapshot = std::move(current);
    };

    // --------------------------------------------------------------
    // The traffic loop. Virtual time only: `slice` advances one per
    // executed machine round and fast-forwards across idle gaps, so
    // arrival spacing never shows up as scheduler-visible stall
    // rounds (QM timeouts stay reserved for error-induced stalls).
    // --------------------------------------------------------------
    ArrivalRng rng{mix64(_config.arrivalSeed)};
    Count next_arrival = 0;
    Count burst_index = 0;
    std::size_t event_index = 0;
    Count next_snapshot_at = _config.snapshotEveryFrames;
    bool aborted = false;

    auto apply_due_events = [&]() {
        while (event_index < _config.events.size() &&
               _config.events[event_index].atFrame <= admitted) {
            const ServiceEvent &event = _config.events[event_index];
            ++epoch;
            Json record = Json::object();
            record["type"] = Json("event");
            record["service_schema_version"] =
                Json(kServiceSchemaVersion);
            record["kind"] = Json(eventKindName(event.kind));
            record["slice"] = Json(slice);
            record["frames_admitted"] = Json(admitted);
            if (event.kind == ServiceEvent::Kind::MtbeDegrade) {
                const int slot =
                    ((event.core % num_nodes) + num_nodes) % num_nodes;
                slot_mtbe[static_cast<std::size_t>(slot)] /=
                    event.factor;
                record["core"] = Json(slot);
                record["factor"] = Json(event.factor);
                // Reconfigure the node currently placed on the slot.
                for (int n = 0; n < num_nodes; ++n) {
                    if ((n + rotation) % num_nodes == slot)
                        reconfigure_node(n);
                }
            } else {
                rotation =
                    (rotation + ((event.rotation % num_nodes) +
                                 num_nodes)) %
                    num_nodes;
                record["rotation"] = Json(event.rotation);
                for (int n = 0; n < num_nodes; ++n)
                    reconfigure_node(n);
            }
            append_record(record);
            ++outcome.eventsApplied;
            ++event_index;
        }
    };

    apply_due_events(); // atFrame == 0 events precede traffic.

    while (true) {
        if (admitted < _config.totalFrames && slice >= next_arrival) {
            // Draw the burst unconditionally (the RNG sequence depends
            // only on the arrival count), clamp to admission control.
            Count burst = rng.aroundMean(_config.meanBurstFrames);
            if (burst_index++ % 8 == 7)
                burst *= 4; // deterministic traffic spike
            // Forced timeouts can "complete" frames ahead of the
            // traffic in catastrophically corrupted runs, so clamp
            // both subtractions.
            const Count done_now = min_frames_completed();
            const Count inflight =
                admitted > done_now ? admitted - done_now : 0;
            const Count space = _config.maxBacklogFrames > inflight
                                    ? _config.maxBacklogFrames - inflight
                                    : 0;
            burst = std::min(
                {burst, space, _config.totalFrames - admitted});
            if (burst > 0) {
                admit_frames(burst);
                ++outcome.bursts;
                apply_due_events();
            }
            next_arrival = slice + rng.aroundMean(_config.meanGapSlices);
        }

        const Count completed = min_frames_completed();
        if (completed >= admitted) {
            if (admitted >= _config.totalFrames)
                break; // everything admitted and drained
            // Idle: fast-forward virtual time to the next arrival
            // instead of spinning the scheduler on an empty machine.
            slice = std::max(slice, next_arrival);
            continue;
        }

        const Multicore::RoundStatus status = machine.stepRound();
        ++outcome.machineRounds;
        ++slice;
        if (status == Multicore::RoundStatus::WatchdogAbort) {
            aborted = true;
            break;
        }

        const Count now_completed = min_frames_completed();
        if (now_completed >= next_snapshot_at) {
            emit_snapshot(now_completed);
            while (next_snapshot_at <= now_completed)
                next_snapshot_at += _config.snapshotEveryFrames;
        }
    }

    const MachineRunResult result = machine.finish();
    outcome.framesAdmitted = admitted;
    outcome.framesCompleted = min_frames_completed();
    outcome.virtualSlices = slice;
    outcome.completed =
        !aborted && outcome.framesCompleted == _config.totalFrames;
    outcome.totalInstructions = result.totalInstructions;
    outcome.totalCycles = result.totalCycles;
    outcome.timeoutsFired = result.timeoutsFired;
    outcome.deadlockBreaks = result.deadlockBreaks;

    // Fold the tail interval into one last snapshot so the stream's
    // running totals reconcile with the summary.
    emit_snapshot(outcome.framesCompleted);
    outcome.errorsInjected = last_snapshot.total("errorsInjected");
    outcome.repairs = protection::repairTotal(last_snapshot);
    outcome.sourceUnderflows =
        last_snapshot.get("queue/source/underflowPops");

    Json summary = Json::object();
    summary["type"] = Json("summary");
    summary["service_schema_version"] = Json(kServiceSchemaVersion);
    summary["app"] = Json(application.name);
    summary["protection_mode"] =
        Json(protection::protectionModeName(load.mode));
    summary["seed"] = Json(Count{load.seed});
    summary["arrival_seed"] = Json(Count{_config.arrivalSeed});
    summary["completed"] = Json(outcome.completed);
    summary["total_frames"] = Json(_config.totalFrames);
    summary["frames_admitted"] = Json(outcome.framesAdmitted);
    summary["frames_completed"] = Json(outcome.framesCompleted);
    summary["bursts"] = Json(outcome.bursts);
    summary["virtual_slices"] = Json(outcome.virtualSlices);
    summary["machine_rounds"] = Json(outcome.machineRounds);
    summary["output_items"] = Json(outcome.outputItems);
    summary["output_checksum"] = Json(hex64(outcome.outputChecksum));
    summary["total_instructions"] = Json(outcome.totalInstructions);
    summary["total_cycles"] = Json(Cycle{outcome.totalCycles});
    summary["timeouts_fired"] = Json(outcome.timeoutsFired);
    summary["deadlock_breaks"] = Json(outcome.deadlockBreaks);
    summary["errors_injected"] = Json(outcome.errorsInjected);
    summary["repairs"] = Json(outcome.repairs);
    summary["source_underflows"] = Json(outcome.sourceUnderflows);
    summary["snapshots"] = Json(outcome.snapshots);
    summary["events_applied"] = Json(outcome.eventsApplied);
    summary["max_backlog_words"] =
        Json(Count{outcome.maxBacklogWords});
    outcome.summary = summary;
    append_record(summary);
    return outcome;
}

namespace
{

/** checkServiceStream()'s state over one stream. */
struct ServiceStreamCheck
{
    bool sawMeta = false;
    bool sawSummary = false;
    Count totalFrames = 0;
    Count snapshots = 0;  //!< Snapshot records so far: the next index.
    Count lastSlice = 0;
    Count lastAdmitted = 0;
    Count events = 0;
    Count errorsInjected = 0;  //!< Sum of snapshot errors_injected.
    Count repairs = 0;         //!< Sum of snapshot repairs.

    SchemaErrors checkRecord(const Json &record, std::size_t line);
};

constexpr SchemaMember kSnapshotMembers[] = {
    {"index", JsonKind::Count},
    {"slice", JsonKind::Count},
    {"frames_admitted", JsonKind::Count},
    {"frames_completed", JsonKind::Count},
    {"errors_injected", JsonKind::Count},
    {"repairs", JsonKind::Count},
    {"deltas", JsonKind::Object},
};

constexpr SchemaMember kSummaryMembers[] = {
    {"completed", JsonKind::Bool},
    {"frames_completed", JsonKind::Count},
    {"snapshots", JsonKind::Count},
    {"events_applied", JsonKind::Count},
    {"errors_injected", JsonKind::Count},
    {"repairs", JsonKind::Count},
};

SchemaErrors
ServiceStreamCheck::checkRecord(const Json &record, std::size_t line)
{
    SchemaErrors errors;
    checkVersion(record, "service_schema_version", kServiceSchemaVersion,
                 errors);
    const Json *type =
        typedMember(record, {"type", JsonKind::String}, errors);
    if (!errors.empty())
        return errors;
    if (sawSummary)
        return {"record after the summary (summary must be last)"};

    if (type->str() == "meta") {
        if (sawMeta || line != 1)
            return {"meta record is not alone on the first line"};
        const Json *frames =
            typedMember(record, {"total_frames", JsonKind::Count}, errors);
        if (frames != nullptr && frames->counter() == 0)
            errors.push_back("meta lacks a positive total_frames");
        if (!errors.empty())
            return errors;
        sawMeta = true;
        totalFrames = frames->counter();
        return {};
    }
    if (!sawMeta)
        return {"stream does not begin with a meta record"};

    if (type->str() == "event") {
        const char *kinds[] = {eventKindName(ServiceEvent::Kind::MtbeDegrade),
                               eventKindName(ServiceEvent::Kind::Remap)};
        const Json *kind =
            typedMember(record, {"kind", JsonKind::String}, errors);
        if (kind != nullptr && kind->str() != kinds[0] &&
            kind->str() != kinds[1])
            errors.push_back("event kind " + kind->dump() + " is not " +
                             kinds[0] + "/" + kinds[1]);
        events += errors.empty() ? 1 : 0;
        return errors;
    }

    if (type->str() == "snapshot") {
        const auto members = requireMembers(record, kSnapshotMembers, errors);
        if (!members)
            return errors;
        const auto &[index, slice, admitted, completed, errors_injected,
                     repairs_json, deltas] = *members;
        if (!checkCountMembers(*deltas, errors))
            return errors;
        Count delta_errors = 0;
        Count delta_repairs = 0;
        for (const auto &[name, value] : deltas->obj()) {
            if (metrics::leafName(name) == "errorsInjected")
                delta_errors += value.counter();
            else if (protection::isRepairCounter(name))
                delta_repairs += value.counter();
        }
        if (errors_injected->counter() != delta_errors ||
            repairs_json->counter() != delta_repairs)
            return {"snapshot errors_injected/repairs " +
                    errors_injected->dump() + "/" + repairs_json->dump() +
                    " != deltas' " + std::to_string(delta_errors) + "/" +
                    std::to_string(delta_repairs)};
        if (index->counter() != snapshots)
            return {"snapshot index " + index->dump() +
                    " is not consecutive (expected " +
                    std::to_string(snapshots) + ")"};
        if (slice->counter() < lastSlice)
            return {"snapshot slice " + slice->dump() +
                    " decreases below " + std::to_string(lastSlice)};
        if (admitted->counter() < lastAdmitted ||
            admitted->counter() > totalFrames ||
            completed->counter() > admitted->counter())
            return {"frames_completed " + completed->dump() +
                    ", frames_admitted " + admitted->dump() +
                    ": need completed <= admitted <= total_frames " +
                    std::to_string(totalFrames) + " and admitted >= " +
                    std::to_string(lastAdmitted)};
        ++snapshots;
        lastSlice = slice->counter();
        lastAdmitted = admitted->counter();
        errorsInjected += errors_injected->counter();
        repairs += repairs_json->counter();
        return {};
    }

    if (type->str() != "summary")
        return {"unknown record type " + type->dump()};
    const auto members = requireMembers(record, kSummaryMembers, errors);
    if (!members)
        return errors;
    const auto &[completed, frames, snapshot_count, events_applied,
                 errors_injected, repairs_json] = *members;
    if (completed->boolean() && frames->counter() != totalFrames)
        errors.push_back("summary claims completed but frames_completed " +
                         frames->dump() + " != total_frames " +
                         std::to_string(totalFrames));
    if (snapshot_count->counter() != snapshots ||
        events_applied->counter() != events ||
        errors_injected->counter() != errorsInjected ||
        repairs_json->counter() != repairs)
        errors.push_back(
            "summary snapshots/events_applied/errors_injected/repairs " +
            snapshot_count->dump() + "/" + events_applied->dump() + "/" +
            errors_injected->dump() + "/" + repairs_json->dump() +
            " != the stream's " + std::to_string(snapshots) + "/" +
            std::to_string(events) + "/" + std::to_string(errorsInjected) +
            "/" + std::to_string(repairs));
    sawSummary = errors.empty();
    return errors;
}

} // namespace

SchemaErrors
checkServiceStream(const std::string &text)
{
    ServiceStreamCheck stream;
    SchemaErrors errors = checkJsonlLines(
        text, [&](const Json &record, std::size_t line) {
            return stream.checkRecord(record, line);
        });
    if (!stream.sawSummary)
        errors.push_back("no summary record");
    return errors;
}

} // namespace commguard::sim
