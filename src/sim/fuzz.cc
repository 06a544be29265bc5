#include "sim/fuzz.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "apps/random_graph_app.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/rng.hh"
#include "sim/protection.hh"
#include "sim/run_export.hh"
#include "sim/sweep_runner.hh"
#include "sim/trace_export.hh"

namespace commguard::sim
{

namespace
{

/** The jsonl_check line validation, reusable on an in-memory record. */
void
appendSchemaErrors(const Json &record, std::size_t run_index,
                   std::vector<std::string> &failures)
{
    const auto fail = [&](const std::string &why) {
        failures.push_back("schema: run " + std::to_string(run_index) +
                           ": " + why);
    };

    // Round-trip through text: the record must survive its own
    // serialization, exactly like a CG_JSONL consumer would see it.
    Json reparsed;
    std::string parse_error;
    if (!Json::parse(record.dump(), reparsed, &parse_error)) {
        fail("record does not reparse: " + parse_error);
        return;
    }

    for (const char *key :
         {"app", "protection_mode", "inject_errors", "mtbe", "seed",
          "frame_scale"}) {
        if (reparsed.find(key) == nullptr) {
            fail(std::string("missing descriptor field '") + key + "'");
            return;
        }
    }
    const Json *version = reparsed.find("schema_version");
    if (version == nullptr ||
        version->counter() != static_cast<Count>(metrics::kSchemaVersion)) {
        fail("bad or missing schema_version");
        return;
    }

    metrics::MetricSnapshot snapshot;
    try {
        snapshot = metrics::snapshotFromJson(reparsed);
    } catch (const std::exception &e) {
        fail(std::string("snapshot rejected: ") + e.what());
        return;
    }
    const Json reencoded = metrics::snapshotToJson(snapshot);
    const Json *counters = reparsed.find("counters");
    const Json *gauges = reparsed.find("gauges");
    if (counters == nullptr || gauges == nullptr) {
        fail("missing counters/gauges");
        return;
    }
    if (reencoded.find("counters")->dump() != counters->dump() ||
        reencoded.find("gauges")->dump() != gauges->dump())
        fail("snapshot does not round-trip canonically");
}

} // namespace

FuzzCase
randomFuzzCase(std::uint64_t case_seed)
{
    // Decorrelate neighboring seeds; the Rng's splitmix seeding does
    // the heavy lifting, the odd multiplier keeps seed 0 nontrivial.
    Rng rng(case_seed * 0x9E3779B97F4A7C15ull + 0x243F6A8885A308D3ull);

    FuzzCase fuzz_case;
    fuzz_case.caseSeed = case_seed;
    fuzz_case.graphSeed = rng.next64();
    fuzz_case.stages = 2 + static_cast<int>(rng.below(4));
    fuzz_case.maxGranularity = 1 + static_cast<int>(rng.below(6));
    fuzz_case.allowSplitJoin = rng.below(4) != 0;

    // Every registered protection mode is a fuzz axis point: a new
    // backend joins the invariant sweep by registering itself.
    const std::vector<protection::ProtectionMode> modes =
        protection::ProtectionRegistry::instance().modes();
    fuzz_case.mode = modes[rng.below(modes.size())];
    fuzz_case.injectErrors = rng.below(4) != 0;

    static constexpr double mtbes[] = {8'000.0, 32'000.0, 128'000.0,
                                       1'024'000.0};
    fuzz_case.mtbe = mtbes[rng.below(4)];

    static constexpr Count frame_scales[] = {1, 2, 4};
    fuzz_case.frameScale = frame_scales[rng.below(3)];

    // Deliberately includes non-power-of-two points: swept capacities
    // must be enforced exactly (the RingQueue rounding bug's axis).
    static constexpr std::size_t capacities[] = {48, 96, 256, 1'000,
                                                 1u << 12};
    fuzz_case.queueCapacityWords = capacities[rng.below(5)];

    fuzz_case.iterations = 4 + rng.below(13);
    fuzz_case.jobs = 2 + rng.below(3);
    fuzz_case.sweepSeeds = 1 + static_cast<int>(rng.below(2));
    return fuzz_case;
}

Json
fuzzCaseJson(const FuzzCase &fuzz_case)
{
    Json json = Json::object();
    json["case_seed"] = Json(Count{fuzz_case.caseSeed});
    json["graph_seed"] = Json(Count{fuzz_case.graphSeed});
    json["stages"] = Json(fuzz_case.stages);
    json["max_granularity"] = Json(fuzz_case.maxGranularity);
    json["allow_split_join"] = Json(fuzz_case.allowSplitJoin);
    json["mode"] =
        Json(protection::protectionModeName(fuzz_case.mode));
    json["inject_errors"] = Json(fuzz_case.injectErrors);
    json["mtbe"] = Json(fuzz_case.mtbe);
    json["frame_scale"] = Json(fuzz_case.frameScale);
    json["queue_capacity_words"] =
        Json(Count{fuzz_case.queueCapacityWords});
    json["iterations"] = Json(fuzz_case.iterations);
    json["jobs"] = Json(static_cast<int>(fuzz_case.jobs));
    json["sweep_seeds"] = Json(fuzz_case.sweepSeeds);
    json["break_invariant"] = Json(fuzz_case.breakInvariant);
    return json;
}

bool
fuzzCaseFromJson(const Json &json, FuzzCase &out, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    if (!json.isObject())
        return fail("fuzz case is not an object");

    const auto number = [&](const char *key, Count &value) {
        const Json *field = json.find(key);
        if (field == nullptr || !field->isNumber())
            return false;
        value = field->counter();
        return true;
    };

    FuzzCase parsed;
    Count raw = 0;
    if (!number("case_seed", raw))
        return fail("missing numeric 'case_seed'");
    parsed.caseSeed = raw;
    if (!number("graph_seed", raw))
        return fail("missing numeric 'graph_seed'");
    parsed.graphSeed = raw;
    if (!number("stages", raw) || raw < 1)
        return fail("'stages' must be a positive number");
    parsed.stages = static_cast<int>(raw);
    if (!number("max_granularity", raw) || raw < 1)
        return fail("'max_granularity' must be a positive number");
    parsed.maxGranularity = static_cast<int>(raw);
    if (!number("frame_scale", raw) || raw < 1)
        return fail("'frame_scale' must be a positive number");
    parsed.frameScale = raw;
    if (!number("queue_capacity_words", raw) || raw < 1)
        return fail("'queue_capacity_words' must be a positive number");
    parsed.queueCapacityWords = raw;
    if (!number("iterations", raw) || raw < 1)
        return fail("'iterations' must be a positive number");
    parsed.iterations = raw;
    if (!number("jobs", raw) || raw < 1)
        return fail("'jobs' must be a positive number");
    parsed.jobs = static_cast<unsigned>(raw);
    if (!number("sweep_seeds", raw) || raw < 1)
        return fail("'sweep_seeds' must be a positive number");
    parsed.sweepSeeds = static_cast<int>(raw);

    const Json *mtbe = json.find("mtbe");
    if (mtbe == nullptr || !mtbe->isNumber() || !(mtbe->number() > 0.0))
        return fail("'mtbe' must be a positive number");
    parsed.mtbe = mtbe->number();

    const Json *split = json.find("allow_split_join");
    const Json *inject = json.find("inject_errors");
    if (split == nullptr || !split->isBool() || inject == nullptr ||
        !inject->isBool())
        return fail("missing boolean 'allow_split_join'/"
                    "'inject_errors'");
    parsed.allowSplitJoin = split->boolean();
    parsed.injectErrors = inject->boolean();

    const Json *mode = json.find("mode");
    if (mode == nullptr || !mode->isString() ||
        !protection::tryParseProtectionMode(mode->str(), &parsed.mode))
        return fail("'mode' is not a known protection mode name");

    const Json *hook = json.find("break_invariant");
    if (hook == nullptr || !hook->isString())
        return fail("missing string 'break_invariant'");
    parsed.breakInvariant = hook->str();

    out = parsed;
    return true;
}

FuzzVerdict
checkFuzzCase(const FuzzCase &fuzz_case)
{
    FuzzVerdict verdict;

    apps::RandomGraphOptions graph_options;
    graph_options.stages = fuzz_case.stages;
    graph_options.maxGranularity = fuzz_case.maxGranularity;
    graph_options.allowSplitJoin = fuzz_case.allowSplitJoin;

    Count expected_items = 0;
    const apps::App app = apps::makeRandomGraphApp(
        fuzz_case.graphSeed, graph_options, fuzz_case.iterations,
        &expected_items);

    std::vector<RunDescriptor> descriptors;
    for (int seed = 0; seed < fuzz_case.sweepSeeds; ++seed) {
        streamit::LoadOptions options =
            sweepOptions(fuzz_case.mode, fuzz_case.injectErrors,
                         fuzz_case.mtbe, seed, fuzz_case.frameScale);
        options.queueCapacityWords = fuzz_case.queueCapacityWords;
        // The conservation invariant needs the event trace.
        options.machine.traceEvents = true;
        descriptors.push_back({&app, options});
    }

    const auto run_batch = [&](unsigned jobs) {
        // Caching off: the whole point is comparing two *executions*
        // (jobs=1 vs jobs=N); a cache would serve the second batch
        // from the first and the comparison would test nothing.
        SweepRunner runner(jobs, SweepRunner::Caching::Off);
        runner.setProgress([](std::size_t, std::size_t) {});
        for (const RunDescriptor &descriptor : descriptors)
            runner.enqueue(descriptor);
        return runner.runAll();
    };
    std::vector<RunOutcome> base = run_batch(1);
    std::vector<RunOutcome> threaded = run_batch(fuzz_case.jobs);
    verdict.runs = base.size() + threaded.size();

    // Test hooks: deliberately corrupt one checked artifact so the
    // failure→shrink→repro-bundle path itself stays tested.
    if (fuzz_case.breakInvariant == "counter") {
        // Both batches equally: conservation breaks, determinism
        // stays intact, isolating the one invariant.
        for (std::vector<RunOutcome> *batch : {&base, &threaded}) {
            for (RunOutcome &outcome : *batch)
                outcome.snapshot.setCounter("node/fuzz-hook/invocations",
                                            1);
        }
    } else if (fuzz_case.breakInvariant == "determinism") {
        for (RunOutcome &outcome : threaded) {
            outcome.snapshot.setCounter(
                "run/outputItems",
                outcome.snapshot.get("run/outputItems") + 1);
        }
    }

    for (std::size_t i = 0; i < base.size(); ++i) {
        const std::string run = "run " + std::to_string(i);

        // Progress: the paper's liveness requirement.
        if (!base[i].completed)
            verdict.failures.push_back("progress: " + run +
                                       " did not complete");

        // Exactness: error-free runs forward every expected item.
        if (!fuzz_case.injectErrors &&
            base[i].output.size() != expected_items) {
            verdict.failures.push_back(
                "exactness: " + run + " forwarded " +
                std::to_string(base[i].output.size()) +
                " items, expected " + std::to_string(expected_items));
        }

        // Determinism: jobs=1 vs jobs=N, bitwise.
        const bool quality_equal =
            std::memcmp(&base[i].qualityDb, &threaded[i].qualityDb,
                        sizeof(double)) == 0;
        if (!quality_equal || base[i].completed != threaded[i].completed ||
            !(base[i].snapshot == threaded[i].snapshot) ||
            base[i].output != threaded[i].output) {
            verdict.failures.push_back(
                "determinism: " + run + " differs between jobs=1 and "
                "jobs=" + std::to_string(fuzz_case.jobs));
        }

        // Determinism of the export: byte-identical JSONL records.
        const Json base_record = runRecordJson(descriptors[i], base[i]);
        const Json threaded_record =
            runRecordJson(descriptors[i], threaded[i]);
        if (base_record.dump() != threaded_record.dump()) {
            verdict.failures.push_back(
                "determinism: " + run +
                " JSONL record differs between job counts");
        }

        // Conservation: trace event counts must match the counters.
        const std::pair<const char *, const RunOutcome *> views[] = {
            {"jobs=1", &base[i]}, {"jobs=N", &threaded[i]}};
        for (const auto &[label, outcome] : views) {
            if (outcome->eventTrace == nullptr) {
                verdict.failures.push_back("conservation: " + run + " (" +
                                           label + ") has no event trace");
                continue;
            }
            for (const std::string &message : traceConservationErrors(
                     *outcome->eventTrace, outcome->snapshot)) {
                verdict.failures.push_back("conservation: " + run +
                                           " (" + label + "): " + message);
            }
        }

        // Schema: the JSONL record validates and round-trips.
        Json checked = base_record;
        if (fuzz_case.breakInvariant == "schema")
            checked["schema_version"] =
                Json(metrics::kSchemaVersion + 1000);
        appendSchemaErrors(checked, i, verdict.failures);
    }
    return verdict;
}

FuzzCase
shrinkFuzzCase(const FuzzCase &failing, int max_checks)
{
    FuzzCase best = failing;
    int checks = 0;

    const auto try_adopt = [&](FuzzCase candidate) -> bool {
        if (candidate == best || checks >= max_checks)
            return false;
        ++checks;
        if (checkFuzzCase(candidate).ok())
            return false;
        best = std::move(candidate);
        return true;
    };

    bool changed = true;
    while (changed && checks < max_checks) {
        changed = false;

        {
            FuzzCase candidate = best;
            candidate.sweepSeeds = 1;
            changed |= try_adopt(candidate);
        }
        for (const int stages : {2, best.stages / 2}) {
            if (stages < 2 || stages >= best.stages)
                continue;
            FuzzCase candidate = best;
            candidate.stages = stages;
            if (try_adopt(candidate)) {
                changed = true;
                break;
            }
        }
        {
            FuzzCase candidate = best;
            candidate.allowSplitJoin = false;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.maxGranularity = 1;
            changed |= try_adopt(candidate);
        }
        for (const Count iterations :
             {Count{1}, best.iterations / 2}) {
            if (iterations < 1 || iterations >= best.iterations)
                continue;
            FuzzCase candidate = best;
            candidate.iterations = iterations;
            if (try_adopt(candidate)) {
                changed = true;
                break;
            }
        }
        {
            FuzzCase candidate = best;
            candidate.frameScale = 1;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.queueCapacityWords = 1u << 12;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.injectErrors = false;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.mode = protection::ProtectionMode::Raw;
            changed |= try_adopt(candidate);
        }
        {
            FuzzCase candidate = best;
            candidate.jobs = 2;
            changed |= try_adopt(candidate);
        }
    }
    return best;
}

Json
reproBundleJson(const FuzzCase &fuzz_case,
                const std::vector<std::string> &failures)
{
    Json bundle = Json::object();
    bundle["schema_version"] = Json(metrics::kSchemaVersion);
    bundle["kind"] = Json("fuzz_repro");
    bundle["case"] = fuzzCaseJson(fuzz_case);
    Json list = Json::array();
    for (const std::string &failure : failures)
        list.push(Json(failure));
    bundle["failures"] = list;
    return bundle;
}

bool
reproBundleFromJson(const Json &json, FuzzCase &out, std::string *error)
{
    const auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    if (!json.isObject())
        return fail("bundle is not an object");
    const Json *version = json.find("schema_version");
    if (version == nullptr || !version->isNumber() ||
        version->counter() != static_cast<Count>(metrics::kSchemaVersion))
        return fail("bad or missing schema_version");
    const Json *kind = json.find("kind");
    if (kind == nullptr || !kind->isString() ||
        kind->str() != "fuzz_repro")
        return fail("bundle kind is not 'fuzz_repro'");
    const Json *failures = json.find("failures");
    if (failures == nullptr || !failures->isArray())
        return fail("missing failures array");
    for (const Json &failure : failures->arr()) {
        if (!failure.isString())
            return fail("failures entries must be strings");
    }
    const Json *embedded = json.find("case");
    if (embedded == nullptr)
        return fail("missing case object");
    return fuzzCaseFromJson(*embedded, out, error);
}

void
writeReproBundle(const std::string &path, const FuzzCase &fuzz_case,
                 const std::vector<std::string> &failures)
{
    std::ofstream out(path);
    if (!out)
        fatal("fuzz: cannot write repro bundle '" + path + "'");
    reproBundleJson(fuzz_case, failures).write(out);
    out << '\n';
    if (!out.good())
        fatal("fuzz: I/O error writing repro bundle '" + path + "'");
}

// ----------------------------------------------------------------------
// FuzzWatchdog.
// ----------------------------------------------------------------------

FuzzWatchdog::FuzzWatchdog()
{
    _monitor = std::thread([this] { monitorLoop(); });
}

FuzzWatchdog::~FuzzWatchdog()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
        ++_generation;
    }
    _changed.notify_all();
    _monitor.join();
}

void
FuzzWatchdog::arm(double budget_seconds, std::string context)
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _deadline = std::chrono::steady_clock::now() +
                    std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(budget_seconds));
        _context = std::move(context);
        _armed = true;
        ++_generation;
    }
    _changed.notify_all();
}

void
FuzzWatchdog::disarm()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _armed = false;
        ++_generation;
    }
    _changed.notify_all();
}

void
FuzzWatchdog::monitorLoop()
{
    std::unique_lock<std::mutex> lock(_mutex);
    for (;;) {
        if (_stopping)
            return;
        if (!_armed) {
            _changed.wait(lock);
            continue;
        }
        const std::uint64_t generation = _generation;
        const bool state_changed = _changed.wait_until(
            lock, _deadline,
            [&] { return _stopping || _generation != generation; });
        if (state_changed)
            continue;
        // Deadline passed with the same case still armed: the case is
        // hung. Print the repro context and kill the process hard —
        // destructors may themselves be wedged.
        std::fprintf(stderr,
                     "[fuzz] watchdog: case exceeded its wall-clock "
                     "budget (likely deadlock or livelock)\n%s\n",
                     _context.c_str());
        std::fflush(stderr);
        std::_Exit(kFuzzWatchdogExitCode);
    }
}

} // namespace commguard::sim
