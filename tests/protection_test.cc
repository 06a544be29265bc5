/**
 * @file
 * Tests for the protection-backend registry (src/sim/protection.hh):
 * registration invariants, name/descriptor/JSON round-trips, the
 * builder and parser error paths, and the engine-level guarantees the
 * registry's new backends must uphold — error-free output exactness
 * and bitwise job-count-independent determinism under injection.
 */

#include <gtest/gtest.h>

#include <cstdlib>

#include "apps/app.hh"
#include "sim/experiment_config.hh"
#include "sim/protection.hh"
#include "sim/sweep_runner.hh"

namespace commguard
{
namespace
{

using protection::ModeDescriptor;
using protection::ProtectionMode;
using protection::ProtectionRegistry;

/** A structurally valid descriptor for add() tests (never invoked). */
ModeDescriptor
testDescriptor(const std::string &name)
{
    ModeDescriptor descriptor;
    descriptor.name = name;
    descriptor.description = "test mode";
    descriptor.makeEdgeQueue = [](const std::string &, std::size_t,
                                  RecyclePool<QueueWord> *)
        -> std::unique_ptr<QueueBase> { return nullptr; };
    descriptor.makeBackend = [](const protection::BackendSpec &)
        -> std::unique_ptr<CommBackend> { return nullptr; };
    return descriptor;
}

TEST(ProtectionRegistry, BuiltInsRegisterInIdOrder)
{
    const ProtectionRegistry &registry = ProtectionRegistry::instance();
    ASSERT_GE(registry.size(), 5u);

    const std::vector<ProtectionMode> modes = registry.modes();
    ASSERT_EQ(modes.size(), registry.size());
    for (std::size_t i = 0; i < modes.size(); ++i)
        EXPECT_EQ(static_cast<std::size_t>(modes[i]), i);

    const std::vector<std::string> names = registry.names();
    ASSERT_GE(names.size(), 5u);
    EXPECT_EQ(names[0], "raw");
    EXPECT_EQ(names[1], "reliable-queue");
    EXPECT_EQ(names[2], "commguard");
    EXPECT_EQ(names[3], "replicate");
    EXPECT_EQ(names[4], "abft");
}

TEST(ProtectionRegistry, DescriptorsRoundTripNameAndId)
{
    const ProtectionRegistry &registry = ProtectionRegistry::instance();
    for (ProtectionMode mode : registry.modes()) {
        const ModeDescriptor &descriptor = registry.describe(mode);
        EXPECT_EQ(descriptor.mode, mode);
        EXPECT_FALSE(descriptor.name.empty());
        EXPECT_FALSE(descriptor.description.empty());
        EXPECT_TRUE(descriptor.makeEdgeQueue != nullptr);
        EXPECT_TRUE(descriptor.makeBackend != nullptr);

        // name -> mode -> name closes, through both parse entries.
        EXPECT_EQ(protection::parseProtectionMode(descriptor.name),
                  mode);
        EXPECT_STREQ(protection::protectionModeName(mode),
                     descriptor.name.c_str());
        ProtectionMode reparsed{};
        EXPECT_TRUE(registry.tryParse(descriptor.name, &reparsed));
        EXPECT_EQ(reparsed, mode);

        // The JSONL schema vocabulary is exactly this name set.
        EXPECT_NE(registry.nameList().find(descriptor.name),
                  std::string::npos);

        // Aliases parse to the same id and are never canonical names.
        for (const std::string &alias : descriptor.aliases) {
            EXPECT_EQ(protection::parseProtectionMode(alias), mode);
            EXPECT_STRNE(protection::protectionModeName(mode),
                         alias.c_str());
        }
    }
}

TEST(ProtectionRegistry, RepairLeavesDefineTheRepairCounters)
{
    using protection::isRepairCounter;
    const ProtectionRegistry &registry = ProtectionRegistry::instance();
    using Leaves = std::vector<std::string>;
    EXPECT_EQ(registry.describe(ProtectionMode::Raw).repairLeaves,
              Leaves{});
    EXPECT_EQ(registry.describe(ProtectionMode::ReliableQueue).repairLeaves,
              Leaves{});
    EXPECT_EQ(registry.describe(ProtectionMode::CommGuard).repairLeaves,
              (Leaves{"paddedItems", "discardedItems"}));
    EXPECT_EQ(registry.describe(ProtectionMode::Replicate).repairLeaves,
              Leaves{"votedCorrections"});
    EXPECT_EQ(registry.describe(ProtectionMode::Abft).repairLeaves,
              Leaves{"correctedItems"});

    for (ProtectionMode mode : registry.modes()) {
        for (const std::string &leaf :
             registry.describe(mode).repairLeaves) {
            EXPECT_TRUE(isRepairCounter("x/F/" + leaf)) << leaf;
            EXPECT_TRUE(isRepairCounter("x/F/" + leaf + "#2")) << leaf;
        }
    }
    EXPECT_FALSE(isRepairCounter("cg/F/acceptedItems"));
    EXPECT_FALSE(isRepairCounter("abft/F/uncorrectableBlocks#2"));

    // repairTotal() sums each leaf once, "#k" duplicates included.
    metrics::MetricSnapshot snapshot;
    snapshot.setCounter("cg/F/paddedItems", 1);
    snapshot.setCounter("cg/F/paddedItems#2", 2);
    snapshot.setCounter("cg/F/discardedItems", 4);
    snapshot.setCounter("repl/F/votedCorrections", 8);
    snapshot.setCounter("abft/F/correctedItems#3", 16);
    snapshot.setCounter("cg/F/acceptedItems", 32);
    snapshot.setCounter("abft/F/uncorrectableBlocks", 64);
    EXPECT_EQ(protection::repairTotal(snapshot), 31u);
}

TEST(ProtectionRegistry, PreRegistryAliasStillParses)
{
    EXPECT_EQ(protection::parseProtectionMode("ppu-only"),
              ProtectionMode::Raw);
}

TEST(ProtectionRegistry, TryParseRejectsUnknownNames)
{
    ProtectionMode out{};
    EXPECT_FALSE(protection::tryParseProtectionMode("turbo", &out));
    EXPECT_FALSE(protection::tryParseProtectionMode("", &out));
    EXPECT_FALSE(protection::tryParseProtectionMode("Commguard", &out));
}

TEST(ProtectionRegistryDeath, ParseFatalListsRegisteredModes)
{
    EXPECT_EXIT(protection::parseProtectionMode("turbo"),
                ::testing::ExitedWithCode(1),
                "unknown protection mode 'turbo'.*raw.*commguard.*"
                "replicate.*abft");
}

TEST(ProtectionRegistryDeath, DescribeFatalOnUnregisteredId)
{
    EXPECT_EXIT(ProtectionRegistry::instance().describe(
                    static_cast<ProtectionMode>(200)),
                ::testing::ExitedWithCode(1), "unregistered");
}

TEST(ProtectionRegistryDeath, AddRejectsDuplicatesAndHalfModes)
{
    EXPECT_EXIT(ProtectionRegistry::instance().add(
                    testDescriptor("raw")),
                ::testing::ExitedWithCode(1),
                "'raw': name already registered");
    EXPECT_EXIT(
        {
            // Aliases clash with names and other aliases too.
            ModeDescriptor dup_alias = testDescriptor("fresh-name");
            dup_alias.aliases = {"ppu-only"};
            ProtectionRegistry::instance().add(dup_alias);
        },
        ::testing::ExitedWithCode(1),
        "alias 'ppu-only' already registered");
    EXPECT_EXIT(ProtectionRegistry::instance().add(testDescriptor("")),
                ::testing::ExitedWithCode(1), "must not be empty");
    EXPECT_EXIT(
        {
            ModeDescriptor no_queue = testDescriptor("no-queue");
            no_queue.makeEdgeQueue = nullptr;
            ProtectionRegistry::instance().add(no_queue);
        },
        ::testing::ExitedWithCode(1), "missing edge-queue factory");
    EXPECT_EXIT(
        {
            ModeDescriptor no_backend = testDescriptor("no-backend");
            no_backend.makeBackend = nullptr;
            ProtectionRegistry::instance().add(no_backend);
        },
        ::testing::ExitedWithCode(1), "missing backend factory");
}

TEST(ProtectionRegistryDeath, AddMintsTheNextIdAndParses)
{
    // Registering a real mode must mint size() as its id and make it
    // parseable. Run in a death-test child so the process-wide
    // registry (which the fuzz harness samples) stays pristine.
    EXPECT_EXIT(
        {
            ProtectionRegistry &registry =
                ProtectionRegistry::instance();
            const std::size_t before = registry.size();
            const ProtectionMode minted =
                registry.add(testDescriptor("test-mode"));
            ProtectionMode parsed{};
            const bool ok =
                static_cast<std::size_t>(minted) == before &&
                registry.size() == before + 1 &&
                registry.tryParse("test-mode", &parsed) &&
                parsed == minted &&
                registry.describe(minted).name == "test-mode";
            std::exit(ok ? 0 : 3);
        },
        ::testing::ExitedWithCode(0), "");
}

TEST(ExperimentConfigProtection, ModeByNameMatchesModeByEnum)
{
    const apps::App app = apps::makeFftApp(16);
    for (const std::string &name :
         ProtectionRegistry::instance().names()) {
        const sim::ExperimentConfig config =
            sim::ExperimentConfig::app(app).mode(name);
        EXPECT_EQ(config.options().mode,
                  protection::parseProtectionMode(name));
    }
}

TEST(ExperimentConfigProtection, ReplicasBelowTwoThrows)
{
    const apps::App app = apps::makeFftApp(16);
    EXPECT_THROW(sim::ExperimentConfig::app(app).replicas(1),
                 std::invalid_argument);
    EXPECT_THROW(sim::ExperimentConfig::app(app).replicas(0),
                 std::invalid_argument);
    EXPECT_NO_THROW(sim::ExperimentConfig::app(app).replicas(3));
}

TEST(ExperimentConfigProtectionDeath, UnknownModeNameFatals)
{
    const apps::App app = apps::makeFftApp(16);
    EXPECT_EXIT(sim::ExperimentConfig::app(app).mode("turbo"),
                ::testing::ExitedWithCode(1), "registered modes");
}

// ----------------------------------------------------------------------
// Engine-level guarantees of the new backends.
// ----------------------------------------------------------------------

TEST(ProtectionBackends, ErrorFreeOutputIsExactForEveryMode)
{
    // complex-fir: the software-queue op costs fit every scope budget,
    // so even the corruptible-substrate modes (raw, abft) run exactly
    // error-free. (fft/jpeg/mp3 trip nested-scope watchdogs on
    // software queues even without errors — inherited behavior,
    // identical at the growth seed.)
    const apps::App app = apps::makeAppByName("complex-fir");
    const sim::RunOutcome reference = sim::ExperimentConfig::app(app)
                                          .mode("reliable-queue")
                                          .noErrors()
                                          .run();
    ASSERT_TRUE(reference.completed);
    ASSERT_FALSE(reference.output.empty());

    for (ProtectionMode mode :
         ProtectionRegistry::instance().modes()) {
        const sim::RunOutcome outcome = sim::ExperimentConfig::app(app)
                                            .mode(mode)
                                            .noErrors()
                                            .run();
        const char *name = protection::protectionModeName(mode);
        EXPECT_TRUE(outcome.completed) << name;
        EXPECT_EQ(outcome.output, reference.output) << name;
    }
}

/** Snapshot + output comparison across job counts for @p mode. */
void
expectJobCountInvariance(ProtectionMode mode)
{
    const apps::App app = apps::makeFftApp(16);
    const auto run_with = [&app, mode](unsigned jobs) {
        sim::SweepRunner runner(jobs);
        for (int seed = 0; seed < 3; ++seed) {
            runner.enqueue(app,
                           sim::sweepOptions(mode, true, 256'000.0,
                                             seed));
        }
        return runner.runAll();
    };

    const std::vector<sim::RunOutcome> serial = run_with(1);
    const std::vector<sim::RunOutcome> parallel = run_with(3);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_TRUE(serial[i].snapshot == parallel[i].snapshot)
            << protection::protectionModeName(mode) << " seed " << i;
        EXPECT_EQ(serial[i].output, parallel[i].output)
            << protection::protectionModeName(mode) << " seed " << i;
    }
}

TEST(ProtectionBackends, ReplicateIsBitwiseJobCountIndependent)
{
    expectJobCountInvariance(ProtectionMode::Replicate);
}

TEST(ProtectionBackends, AbftIsBitwiseJobCountIndependent)
{
    expectJobCountInvariance(ProtectionMode::Abft);
}

TEST(ProtectionBackends, InjectedRunsExerciseTheNewCounters)
{
    const apps::App app = apps::makeAppByName("complex-fir");

    // Replication must actually replay: with the default two replicas
    // every logical invocation runs twice (the replay itself counts as
    // an invocation), so replays account for exactly half.
    const sim::RunOutcome replicated = sim::ExperimentConfig::app(app)
                                           .mode("replicate")
                                           .noErrors()
                                           .run();
    EXPECT_GT(replicated.snapshot.total("replays"), 0u);
    EXPECT_EQ(2 * replicated.snapshot.total("replays"),
              replicated.invocations());

    // ABFT must seal checksums over every guarded edge.
    const sim::RunOutcome checksummed = sim::ExperimentConfig::app(app)
                                            .mode("abft")
                                            .noErrors()
                                            .run();
    EXPECT_GT(checksummed.snapshot.total("checksumBlocks"), 0u);
    EXPECT_EQ(checksummed.snapshot.total("uncorrectableBlocks"), 0u);
}

} // namespace
} // namespace commguard
