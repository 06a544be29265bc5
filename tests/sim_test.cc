/**
 * @file
 * Tests for the experiment harness: sample statistics, table printers,
 * runOnce outcome consistency, and the Rely-style reliability model.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "sim/experiment.hh"
#include "sim/experiment_config.hh"
#include "sim/reliability.hh"
#include "sim/table.hh"

namespace commguard::sim
{
namespace
{

// ----------------------------------------------------------------------
// Sample statistics.
// ----------------------------------------------------------------------

TEST(Summarize, EmptyIsZero)
{
    const SampleStats stats = summarize({});
    EXPECT_EQ(stats.mean, 0.0);
    EXPECT_EQ(stats.stddev, 0.0);
}

TEST(Summarize, SingleSample)
{
    const SampleStats stats = summarize({4.5});
    EXPECT_DOUBLE_EQ(stats.mean, 4.5);
    EXPECT_DOUBLE_EQ(stats.stddev, 0.0);
    EXPECT_DOUBLE_EQ(stats.min, 4.5);
    EXPECT_DOUBLE_EQ(stats.max, 4.5);
}

TEST(Summarize, KnownValues)
{
    const SampleStats stats = summarize({2.0, 4.0, 4.0, 4.0, 5.0,
                                         5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(stats.mean, 5.0);
    EXPECT_DOUBLE_EQ(stats.stddev, 2.0);  // Population stddev.
    EXPECT_DOUBLE_EQ(stats.min, 2.0);
    EXPECT_DOUBLE_EQ(stats.max, 9.0);
}

TEST(MtbeAxis, MatchesPaperSweep)
{
    const std::vector<Count> &axis = mtbeAxis();
    ASSERT_EQ(axis.size(), 8u);
    EXPECT_EQ(axis.front(), 64'000u);
    EXPECT_EQ(axis.back(), 8'192'000u);
    for (std::size_t i = 1; i < axis.size(); ++i)
        EXPECT_EQ(axis[i], axis[i - 1] * 2);
}

// ----------------------------------------------------------------------
// Table printing.
// ----------------------------------------------------------------------

TEST(Table, AlignsColumns)
{
    Table table({"name", "v"});
    table.addRow({"a", "1"});
    table.addRow({"longer", "22"});
    std::ostringstream os;
    table.print(os);
    const std::string text = os.str();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("longer"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, CsvOutput)
{
    Table table({"a", "b"});
    table.addRow({"1", "2"});
    std::ostringstream os;
    table.printCsv(os);
    EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Fmt, Precision)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(3.14159, 0), "3");
    EXPECT_EQ(fmtMeanDev(1.5, 0.25, 1), "1.5 +- 0.2");
}

// ----------------------------------------------------------------------
// runOnce outcome consistency.
// ----------------------------------------------------------------------

TEST(RunOnce, OutcomeFieldsAreConsistent)
{
    const apps::App app = apps::makeFftApp(32);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .mtbe(200'000)
            .seed(5)
            .run();

    EXPECT_TRUE(outcome.completed);
    EXPECT_GT(outcome.totalInstructions(), 0u);
    EXPECT_GE(outcome.totalCycles(), outcome.totalInstructions());
    // 9 graph nodes x 32 invocations each.
    EXPECT_EQ(outcome.invocations(), 9u * 32u);
    // Every delivered item was accepted or padded; loss ratio is
    // consistent with its components.
    if (outcome.acceptedItems() > 0) {
        EXPECT_DOUBLE_EQ(
            outcome.dataLossRatio(),
            static_cast<double>(outcome.paddedItems() +
                                outcome.discardedItems()) /
                static_cast<double>(outcome.acceptedItems()));
    }
    // Output stream was collected.
    EXPECT_EQ(outcome.output.size(), 32u * 128u);
}

TEST(RunOnce, ErrorFreeHasNoCommGuardRepairs)
{
    const apps::App app = apps::makeFftApp(16);
    const RunOutcome outcome =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .noErrors()
            .run();
    EXPECT_EQ(outcome.errorsInjected(), 0u);
    EXPECT_EQ(outcome.paddedItems(), 0u);
    EXPECT_EQ(outcome.discardedItems(), 0u);
    EXPECT_GT(outcome.headerStores(), 0u);  // Headers still flow.
    EXPECT_GT(outcome.totalCgOps(), 0u);
}

// ----------------------------------------------------------------------
// Reliability model (paper §9).
// ----------------------------------------------------------------------

TEST(Reliability, BoundIsMonotoneInMtbe)
{
    const apps::App app = apps::makeFftApp(16);
    const ReliabilityModel model = buildReliabilityModel(app);
    EXPECT_GT(model.totalInstsPerFrame, 0.0);
    EXPECT_EQ(model.instsPerFrame.size(), 9u);  // One per core.

    double previous = 1.1;
    for (double mtbe : {1e4, 1e5, 1e6, 1e7}) {
        const double bound = model.frameAffectedBound(mtbe);
        EXPECT_GT(bound, 0.0);
        EXPECT_LT(bound, previous);
        previous = bound;
    }
}

TEST(Reliability, BoundMatchesPoissonFormula)
{
    ReliabilityModel model;
    model.totalInstsPerFrame = 1000.0;
    EXPECT_NEAR(model.frameAffectedBound(1000.0),
                1.0 - std::exp(-1.0), 1e-12);
    EXPECT_NEAR(model.expectedAffectedFrames(1000.0, 50.0),
                50.0 * (1.0 - std::exp(-1.0)), 1e-9);
}

TEST(Reliability, CorruptedFrameFractionCountsExactly)
{
    const std::vector<Word> reference = {1, 2, 3, 4, 5, 6, 7, 8};
    std::vector<Word> output = reference;
    EXPECT_DOUBLE_EQ(corruptedFrameFraction(reference, output, 4),
                     0.0);
    output[5] = 99;  // Second frame corrupted.
    EXPECT_DOUBLE_EQ(corruptedFrameFraction(reference, output, 4),
                     0.5);
    output[0] = 99;  // Both frames corrupted.
    EXPECT_DOUBLE_EQ(corruptedFrameFraction(reference, output, 4),
                     1.0);
}

TEST(Reliability, MissingOutputCountsAsCorrupted)
{
    const std::vector<Word> reference(8, 7);
    const std::vector<Word> shorter(4, 7);
    EXPECT_DOUBLE_EQ(corruptedFrameFraction(reference, shorter, 4),
                     0.5);
}

TEST(Reliability, MeasuredStaysBelowBound)
{
    // The paper's §9 claim, in miniature: with CommGuard confining
    // error effects to frames, the measured corrupted-frame fraction
    // cannot exceed the Poisson bound (which assumes every injected
    // error corrupts its frame).
    const apps::App app = apps::makeJpegApp(64, 64, 50);
    const Count items_per_frame = 64 * 8 * 3;
    const ReliabilityModel model = buildReliabilityModel(app);

    const std::vector<Word> reference =
        ExperimentConfig::app(app)
            .mode(protection::ProtectionMode::CommGuard)
            .noErrors()
            .run()
            .output;

    for (double mtbe : {512e3, 2048e3}) {
        double measured_sum = 0.0;
        const int seeds = 3;
        for (int seed = 1; seed <= seeds; ++seed) {
            const RunOutcome outcome =
                ExperimentConfig::app(app)
                    .mode(protection::ProtectionMode::CommGuard)
                    .mtbe(mtbe)
                    .seed(static_cast<std::uint64_t>(seed) * 977)
                    .run();
            measured_sum += corruptedFrameFraction(
                reference, outcome.output, items_per_frame);
        }
        EXPECT_LE(measured_sum / seeds,
                  model.frameAffectedBound(mtbe) + 0.15)
            << "mtbe " << mtbe;
    }
}

} // namespace
} // namespace commguard::sim
