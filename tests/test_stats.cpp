/**
 * @file
 * Tests for the statistics accumulators: streaming moments, percentile
 * queries, CDF extraction, windowed samples, and correlation.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "common/stats.hpp"

namespace erms {
namespace {

TEST(StreamingStats, EmptyIsZero)
{
    StreamingStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(StreamingStats, MeanVarianceMinMax)
{
    StreamingStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    // Sample variance: sum of squared deviations 32 over n - 1 = 7.
    EXPECT_DOUBLE_EQ(s.variance(), 32.0 / 7.0);
    EXPECT_DOUBLE_EQ(s.stddev(), std::sqrt(32.0 / 7.0));
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(StreamingStats, VarianceUsesSampleDenominator)
{
    // Regression: variance() divided m2 by n (population variance)
    // while merge() and the profiling-fit callers assume the sample
    // (n - 1) convention. {1, 2} has sample variance 0.5, not 0.25.
    StreamingStats s;
    s.add(1.0);
    s.add(2.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.5);
}

TEST(StreamingStats, MergeEqualsCombinedStream)
{
    StreamingStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10.0;
        (i % 2 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(StreamingStats, MergeWithEmpty)
{
    StreamingStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(SampleSet, QuantilesOfKnownDistribution)
{
    SampleSet set;
    for (int i = 1; i <= 100; ++i)
        set.add(static_cast<double>(i));
    EXPECT_NEAR(set.quantile(0.0), 1.0, 1e-9);
    EXPECT_NEAR(set.quantile(1.0), 100.0, 1e-9);
    EXPECT_NEAR(set.p50(), 50.5, 1e-9);
    EXPECT_NEAR(set.p95(), 95.05, 1e-9);
    EXPECT_NEAR(set.p99(), 99.01, 1e-9);
}

TEST(SampleSet, SingleSample)
{
    SampleSet set;
    set.add(42.0);
    EXPECT_DOUBLE_EQ(set.p95(), 42.0);
    EXPECT_DOUBLE_EQ(set.mean(), 42.0);
    EXPECT_DOUBLE_EQ(set.min(), 42.0);
    EXPECT_DOUBLE_EQ(set.max(), 42.0);
}

TEST(SampleSet, EmptyReturnsZero)
{
    SampleSet set;
    EXPECT_DOUBLE_EQ(set.p95(), 0.0);
    EXPECT_DOUBLE_EQ(set.mean(), 0.0);
    EXPECT_DOUBLE_EQ(set.fractionAbove(1.0), 0.0);
}

TEST(SampleSet, InterleavedAddAndQuery)
{
    SampleSet set;
    set.add(10.0);
    EXPECT_DOUBLE_EQ(set.max(), 10.0);
    set.add(20.0);
    EXPECT_DOUBLE_EQ(set.max(), 20.0); // re-sort after insert
    set.add(5.0);
    EXPECT_DOUBLE_EQ(set.min(), 5.0);
}

TEST(SampleSet, FractionAboveIsStrict)
{
    SampleSet set;
    set.addAll({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(set.fractionAbove(2.0), 0.5);
    EXPECT_DOUBLE_EQ(set.fractionAbove(0.0), 1.0);
    EXPECT_DOUBLE_EQ(set.fractionAbove(4.0), 0.0);
}

/** fractionAbove() of a set that has never been sorted and of the
 *  same samples after a sort (min() sorts), bit for bit, over every
 *  sample value as a threshold (ties), points between and beyond. */
void
expectUnsortedCountMatchesSorted(const std::vector<double> &xs)
{
    std::vector<double> thresholds = {-1e300, 1e300};
    for (double x : xs) {
        thresholds.push_back(x);
        thresholds.push_back(x + 0.5);
        thresholds.push_back(x - 0.5);
    }
    for (double threshold : thresholds) {
        SampleSet unsorted;
        unsorted.addAll(xs);
        SampleSet sorted;
        sorted.addAll(xs);
        sorted.min();
        EXPECT_EQ(unsorted.fractionAbove(threshold),
                  sorted.fractionAbove(threshold))
            << "threshold " << threshold << " over " << xs.size()
            << " samples";
        // Counting leaves the buffer in insertion order, so a later
        // mean() sums exactly what it would have without the query.
        EXPECT_EQ(unsorted.samples(), xs);
    }
}

TEST(SampleSet, FractionAboveUnsortedMatchesSortedPath)
{
    expectUnsortedCountMatchesSorted({});
    expectUnsortedCountMatchesSorted({7.0});
    expectUnsortedCountMatchesSorted({0.0});
    // Ties at the threshold and duplicates on both sides of it.
    expectUnsortedCountMatchesSorted({3.0, 1.0, 3.0, 3.0, 2.0, 5.0, 3.0});
    expectUnsortedCountMatchesSorted({4.0, 4.0, 4.0, 4.0});
    expectUnsortedCountMatchesSorted({-2.0, 9.5, -2.0, 0.0, 9.5, 1e-9});

    // A minute-sized window, past the selection threshold, with heavy
    // duplication (values on a 0.25 ms grid).
    std::vector<double> window;
    std::uint64_t x = 12345;
    for (int i = 0; i < 5000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        window.push_back(static_cast<double>((x >> 33) % 200) * 0.25);
    }
    SampleSet unsorted;
    unsorted.addAll(window);
    SampleSet sorted;
    sorted.addAll(window);
    sorted.min();
    for (double threshold : {-1.0, 0.0, 12.5, 24.75, 25.0, 49.75, 50.0}) {
        EXPECT_EQ(unsorted.fractionAbove(threshold),
                  sorted.fractionAbove(threshold))
            << "threshold " << threshold;
    }
    EXPECT_EQ(unsorted.samples(), window);
}

TEST(SampleSet, CdfAtPoints)
{
    SampleSet set;
    set.addAll({1.0, 2.0, 3.0, 4.0});
    const auto cdf = set.cdfAt({0.5, 2.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf[0], 0.0);
    EXPECT_DOUBLE_EQ(cdf[1], 0.5);
    EXPECT_DOUBLE_EQ(cdf[2], 1.0);
}

TEST(SampleSet, CdfSeriesDeduplicates)
{
    SampleSet set;
    set.addAll({1.0, 1.0, 2.0});
    const auto series = set.cdfSeries();
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[0].first, 1.0);
    EXPECT_NEAR(series[0].second, 2.0 / 3.0, 1e-9);
    EXPECT_DOUBLE_EQ(series[1].first, 2.0);
    EXPECT_DOUBLE_EQ(series[1].second, 1.0);
}

TEST(SampleSet, ClearResets)
{
    SampleSet set;
    set.add(1.0);
    set.clear();
    EXPECT_TRUE(set.empty());
    EXPECT_DOUBLE_EQ(set.p95(), 0.0);
}

TEST(WindowedSamples, SeparatesWindows)
{
    WindowedSamples windows;
    windows.add(0, 1.0);
    windows.add(0, 2.0);
    windows.add(3, 10.0);
    EXPECT_EQ(windows.windowCount(), 2u);
    EXPECT_EQ(windows.window(0).count(), 2u);
    EXPECT_EQ(windows.window(3).count(), 1u);
    EXPECT_EQ(windows.window(1).count(), 0u); // absent window
    const auto indices = windows.windowIndices();
    ASSERT_EQ(indices.size(), 2u);
    EXPECT_EQ(indices[0], 0u);
    EXPECT_EQ(indices[1], 3u);
}

TEST(Correlation, PerfectPositiveAndNegative)
{
    std::vector<double> x{1, 2, 3, 4, 5};
    std::vector<double> y{2, 4, 6, 8, 10};
    std::vector<double> z{10, 8, 6, 4, 2};
    EXPECT_NEAR(pearsonCorrelation(x, y), 1.0, 1e-9);
    EXPECT_NEAR(pearsonCorrelation(x, z), -1.0, 1e-9);
}

TEST(Correlation, DegenerateInputs)
{
    EXPECT_DOUBLE_EQ(pearsonCorrelation({1.0}, {2.0}), 0.0);
    EXPECT_DOUBLE_EQ(pearsonCorrelation({1, 2}, {1, 2, 3}), 0.0);
    // Constant series has zero variance.
    EXPECT_DOUBLE_EQ(pearsonCorrelation({3, 3, 3}, {1, 2, 3}), 0.0);
}

} // namespace
} // namespace erms
