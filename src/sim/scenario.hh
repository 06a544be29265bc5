/**
 * @file
 * Data-driven experiment layer: every reproduced figure, ablation and
 * micro suite is a registered Scenario instead of a one-off binary.
 *
 * A Scenario bundles the metadata the catalogue needs (name,
 * description, paper reference, tags) with a run function that drives
 * the experiment engine and publishes sim::Table results through a
 * ScenarioContext. Scenario definition files live in bench/scenarios/
 * and self-register through a static ScenarioRegistrar, so adding a
 * workload is exactly one new .cc file: no driver or CMake-logic
 * changes (docs/SCENARIOS.md).
 *
 * The single driver binary tools/cg_bench lists and runs scenarios;
 * tests/scenario_registry_test.cc smoke-runs every registered scenario
 * in quick mode, so a scenario cannot land without end-to-end
 * coverage.
 */

#ifndef COMMGUARD_SIM_SCENARIO_HH
#define COMMGUARD_SIM_SCENARIO_HH

#include <cstddef>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "sim/experiment.hh"
#include "sim/schema_check.hh"
#include "sim/sweep_runner.hh"
#include "sim/table.hh"

namespace commguard::sim
{

/**
 * The sweep dimensions shared by the paper's methodology (§6) with
 * their quick-mode (CG_QUICK) thinning in one place: seeds per
 * configuration, the MTBE axis, and the §5.4 frame-scale axis.
 * Scenarios and tests both derive their loops from this instead of
 * re-implementing the quick/full split.
 */
struct SweepAxes
{
    int seeds = seedsPerPoint;       //!< Seeds per configuration.
    std::vector<Count> mtbe;         //!< MTBE axis points (insts).
    std::vector<Count> frameScales;  //!< §5.4 frame-size sweep.
};

/** The canonical axes: full paper sweep, or thinned when @p quick. */
SweepAxes sweepAxes(bool quick);

/**
 * Everything a scenario run needs from its caller: the quick/full
 * switch, output toggles, and the table publication channel. The
 * driver builds one from the CG_* environment (fromEnv()); the smoke
 * test builds a quiet quick-mode one directly, so scenarios never
 * read the environment themselves.
 */
class ScenarioContext
{
  public:
    struct Options
    {
        bool quick = false;    //!< Thinned sweeps (CG_QUICK).
        bool csv = false;      //!< Print CSV after each table (CG_CSV).
        bool writeJson = false;  //!< Write BENCH_<name>.json (CG_JSON).
        std::string artifactDir = "bench_out";  //!< Images/audio/traces.

        /**
         * Restrict protection-mode axes to these modes (CG_MODE /
         * --mode). Empty = every registered mode. Scenarios that sweep
         * modes must loop over modesToRun(), not the registry.
         */
        std::vector<protection::ProtectionMode> modeFilter;
    };

    explicit ScenarioContext(Options options);

    /** Context configured from the process's CG_* environment. */
    static ScenarioContext fromEnv();

    /**
     * The CG_* environment as an Options struct, for callers (the
     * driver's --mode flag) that adjust it before construction.
     */
    static Options optionsFromEnv();

    bool quick() const { return _options.quick; }

    /**
     * The protection modes a mode-sweeping scenario should cover: the
     * modeFilter when set, otherwise every registered mode in registry
     * (id) order.
     */
    std::vector<protection::ProtectionMode> modesToRun() const;

    /** Sweep dimensions for this context's quick/full setting. */
    const SweepAxes &axes() const { return _axes; }
    int seeds() const { return _axes.seeds; }
    const std::vector<Count> &mtbeAxis() const { return _axes.mtbe; }
    const std::vector<Count> &frameScales() const
    {
        return _axes.frameScales;
    }

    /**
     * Directory where scenarios drop images/audio, created on demand.
     * Creation failure is a configuration error: exits via fatal()
     * with the path and OS error instead of silently returning a
     * directory that does not exist.
     */
    std::string outputDir() const;

    /**
     * Publish a finished table under @p name: print the human-readable
     * form (CSV after it when enabled), capture the schema-versioned
     * BENCH document in memory, and write BENCH_<name>.json when
     * writeJson is set. Names become BENCH_<name>.json filenames, so
     * they must stay stable across refactors.
     */
    void publishTable(const std::string &name, const Table &table);

    /**
     * Run every descriptor through the shared parallel runner
     * (CG_JOBS host threads); outcomes in submission order regardless
     * of job count. Per-run JSONL records and trace files are emitted
     * by the runner itself when CG_JSONL/CG_TRACE_EVENTS are set.
     */
    std::vector<RunOutcome>
    runSweep(const std::vector<RunDescriptor> &descriptors) const;

    /** One-descriptor convenience form of runSweep(). */
    RunOutcome runOne(const RunDescriptor &descriptor) const;

    /**
     * Run @p app over seeds() canonical sweep seeds and return the
     * quality samples (fanned out like runSweep()).
     */
    std::vector<double>
    qualitySamples(const apps::App &app, protection::ProtectionMode mode,
                   bool inject, double mtbe,
                   Count frame_scale = 1) const;

    // ------------------------------------------------------------------
    // Post-run introspection (driver summary, smoke tests).
    // ------------------------------------------------------------------

    /** Tables published so far. */
    std::size_t publishedTables() const { return _documents.size(); }

    /** Total rows across every published table. */
    std::size_t publishedRows() const { return _rows; }

    /** Captured (name, BENCH document) pairs, publication order. */
    const std::vector<std::pair<std::string, Json>> &
    benchDocuments() const
    {
        return _documents;
    }

  private:
    Options _options;
    SweepAxes _axes;
    std::size_t _rows = 0;
    std::vector<std::pair<std::string, Json>> _documents;
};

/**
 * One registered experiment: a figure, an ablation, or a micro suite.
 */
struct Scenario
{
    std::string name;         //!< Registry key; BENCH_<name> prefix.
    std::string description;  //!< One-line catalogue entry.
    std::string paperRef;     //!< e.g. "Fig. 9" or "DESIGN.md §7".
    std::vector<std::string> tags;  //!< e.g. {"figure", "quality"}.
    std::function<void(ScenarioContext &)> run;
};

/**
 * Process-wide scenario catalogue. Keyed and iterated in name order,
 * so every listing and --all sweep is deterministic regardless of
 * link order of the definition files.
 */
class ScenarioRegistry
{
  public:
    static ScenarioRegistry &instance();

    /**
     * Register @p scenario. An empty name, a missing run function or
     * a duplicate name is a programming error in the definition file
     * and exits via fatal().
     */
    void add(Scenario scenario);

    /** Look up by exact name; nullptr when absent. */
    const Scenario *find(const std::string &name) const;

    /** Every scenario, name-sorted. */
    std::vector<const Scenario *> all() const;

    /** Name-sorted subset carrying @p tag. */
    std::vector<const Scenario *>
    withTag(const std::string &tag) const;

    /** Sorted names (catalogue listings, tests). */
    std::vector<std::string> names() const;

  private:
    ScenarioRegistry() = default;
    std::map<std::string, Scenario> _scenarios;
};

/**
 * Static registrar: file-scope `static const ScenarioRegistrar r({...})`
 * in a definition file adds the scenario before main() runs.
 */
class ScenarioRegistrar
{
  public:
    explicit ScenarioRegistrar(Scenario scenario)
    {
        ScenarioRegistry::instance().add(std::move(scenario));
    }
};

/**
 * The machine-readable catalogue (`cg_bench list --json`):
 * {"schema_version": ..., "scenarios": [{"name", "description",
 * "paper_ref", "tags"}, ...]} in name order. Validated by
 * checkScenarioList().
 */
Json scenarioListJson();

/**
 * Check a catalogue's text: entries with non-empty name, description,
 * paper_ref and tags, names sorted and unique.
 */
SchemaErrors checkScenarioList(const std::string &text);

} // namespace commguard::sim

#endif // COMMGUARD_SIM_SCENARIO_HH
