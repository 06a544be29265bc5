#include "sim/fuzz.hh"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
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
    if (!json.isObject()) {
        if (error != nullptr)
            *error = "fuzz case is not an object";
        return false;
    }

    // Axes stored as int or unsigned must fit an int: a wider value
    // would replay as a different, truncated case.
    constexpr Count kIntMax = std::numeric_limits<int>::max();
    SchemaErrors errors;
    const auto count = [&](const char *key, Count min,
                           Count max = std::numeric_limits<Count>::max()) {
        const Json *value =
            typedMember(json, {key, JsonKind::Count}, errors);
        if (value == nullptr)
            return min;
        if (value->counter() < min || value->counter() > max)
            errors.push_back(std::string("'") + key + "' is outside [" +
                             std::to_string(min) + ", " +
                             std::to_string(max) + "]");
        return value->counter();
    };
    const auto member = [&](const char *key, JsonKind kind) {
        return typedMember(json, {key, kind}, errors);
    };

    FuzzCase parsed;
    parsed.caseSeed = count("case_seed", 0);
    parsed.graphSeed = count("graph_seed", 0);
    parsed.stages = static_cast<int>(count("stages", 1, kIntMax));
    parsed.maxGranularity =
        static_cast<int>(count("max_granularity", 1, kIntMax));
    parsed.frameScale = count("frame_scale", 1);
    parsed.queueCapacityWords = count("queue_capacity_words", 1);
    parsed.iterations = count("iterations", 1);
    parsed.jobs = static_cast<unsigned>(count("jobs", 1, kIntMax));
    parsed.sweepSeeds = static_cast<int>(count("sweep_seeds", 1, kIntMax));
    const Json *mtbe = member("mtbe", JsonKind::Number);
    const Json *split = member("allow_split_join", JsonKind::Bool);
    const Json *inject = member("inject_errors", JsonKind::Bool);
    const Json *mode = member("mode", JsonKind::String);
    const Json *hook = member("break_invariant", JsonKind::String);
    if (mtbe != nullptr && !(mtbe->number() > 0.0))
        errors.push_back("'mtbe' must be a positive number");
    if (mode != nullptr &&
        !protection::tryParseProtectionMode(mode->str(), &parsed.mode))
        errors.push_back("'mode' is not a known protection mode name");
    if (!errors.empty()) {
        if (error != nullptr)
            *error = errors.front();
        return false;
    }
    parsed.mtbe = mtbe->number();
    parsed.allowSplitJoin = split->boolean();
    parsed.injectErrors = inject->boolean();
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
        runner.setOutcomeObserver([](std::size_t, std::size_t,
                                     const RunDescriptor &,
                                     const RunOutcome &) {});
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

        // Schema: the JSONL record, read back from its text the way a
        // CG_JSONL consumer sees it, passes the run-record check.
        Json checked = base_record;
        if (fuzz_case.breakInvariant == "schema")
            checked["schema_version"] =
                Json(metrics::kSchemaVersion + 1000);
        SchemaErrors schema_errors;
        if (const std::optional<Json> reparsed =
                parseObject(checked.dump(), schema_errors))
            schema_errors = runRecordErrors(*reparsed);
        for (const std::string &message : schema_errors)
            verdict.failures.push_back("schema: " + run + ": " + message);
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
    static constexpr SchemaMember kMembers[] = {
        {"kind", JsonKind::String},
        {"failures", JsonKind::Array},
        {"case", JsonKind::Object},
    };
    const auto fail = [error](const std::string &why) {
        if (error != nullptr)
            *error = why;
        return false;
    };
    if (!json.isObject())
        return fail("bundle is not an object");
    SchemaErrors errors;
    checkVersion(json, "schema_version", metrics::kSchemaVersion, errors);
    const auto members = requireMembers(json, kMembers, errors);
    if (!errors.empty())
        return fail(errors.front());
    const auto &[kind, failures, embedded] = *members;
    if (kind->str() != "fuzz_repro")
        return fail("bundle kind is not 'fuzz_repro'");
    for (const Json &failure : failures->arr()) {
        if (!failure.isString())
            return fail("failures entries must be strings");
    }
    return fuzzCaseFromJson(*embedded, out, error);
}

SchemaErrors
checkReproBundle(const std::string &text)
{
    SchemaErrors errors;
    const std::optional<Json> bundle = parseObject(text, errors);
    if (!bundle)
        return errors;
    FuzzCase fuzz_case;
    std::string error;
    if (!reproBundleFromJson(*bundle, fuzz_case, &error))
        return {"invalid bundle: " + error};
    FuzzCase reparsed;
    if (!fuzzCaseFromJson(fuzzCaseJson(fuzz_case), reparsed, &error) ||
        !(reparsed == fuzz_case))
        return {"case does not round-trip canonically"};
    return {};
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
