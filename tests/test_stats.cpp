// Tests for histograms, running statistics, tail fitting, and confidence
// intervals.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "rng/rng.hpp"
#include "stats/chi_squared.hpp"
#include "stats/stats.hpp"

namespace gs = geochoice::stats;
namespace gr = geochoice::rng;

// ---------------------------------------------------------------- IntHistogram

TEST(IntHistogram, AddAndQuery) {
  gs::IntHistogram h;
  EXPECT_TRUE(h.empty());
  h.add(3);
  h.add(3);
  h.add(5);
  EXPECT_EQ(h.total(), 3u);
  EXPECT_EQ(h.count(3), 2u);
  EXPECT_EQ(h.count(5), 1u);
  EXPECT_EQ(h.count(4), 0u);
  EXPECT_NEAR(h.fraction(3), 2.0 / 3.0, 1e-15);
  EXPECT_EQ(h.min_value(), 3u);
  EXPECT_EQ(h.max_value(), 5u);
  EXPECT_NEAR(h.mean(), 11.0 / 3.0, 1e-12);
}

TEST(IntHistogram, AddWithMultiplicity) {
  gs::IntHistogram h;
  h.add(7, 10);
  h.add(8, 0);  // no-op
  EXPECT_EQ(h.total(), 10u);
  EXPECT_EQ(h.count(7), 10u);
  EXPECT_EQ(h.count(8), 0u);
}

TEST(IntHistogram, MergeEqualsSequentialAdds) {
  gs::IntHistogram a, b, combined;
  for (std::uint64_t v : {1, 2, 2, 3}) {
    a.add(v);
    combined.add(v);
  }
  for (std::uint64_t v : {2, 3, 9}) {
    b.add(v);
    combined.add(v);
  }
  a.merge(b);
  EXPECT_EQ(a, combined);
}

TEST(IntHistogram, Quantiles) {
  gs::IntHistogram h;
  for (std::uint64_t v = 1; v <= 100; ++v) h.add(v);
  EXPECT_EQ(h.quantile(0.5), 50u);
  EXPECT_EQ(h.quantile(0.99), 99u);
  EXPECT_EQ(h.quantile(1.0), 100u);
  EXPECT_EQ(h.quantile(0.0), 1u);
}

TEST(IntHistogram, ItemsSortedByValue) {
  gs::IntHistogram h;
  h.add(9);
  h.add(1);
  h.add(5);
  const auto items = h.items();
  ASSERT_EQ(items.size(), 3u);
  EXPECT_EQ(items[0].first, 1u);
  EXPECT_EQ(items[1].first, 5u);
  EXPECT_EQ(items[2].first, 9u);
}

TEST(IntHistogram, HistogramOfVector) {
  const auto h = gs::histogram_of({4, 4, 4, 7});
  EXPECT_EQ(h.count(4), 3u);
  EXPECT_EQ(h.count(7), 1u);
}

// ---------------------------------------------------------------- RunningStats

TEST(RunningStats, MatchesDirectComputation) {
  const std::vector<double> xs = {1.5, -2.0, 4.0, 0.0, 3.25};
  gs::RunningStats rs;
  for (double x : xs) rs.add(x);
  double mean = 0.0;
  for (double x : xs) mean += x;
  mean /= xs.size();
  double var = 0.0;
  for (double x : xs) var += (x - mean) * (x - mean);
  var /= (xs.size() - 1);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean, 1e-12);
  EXPECT_NEAR(rs.variance(), var, 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), -2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 4.0);
}

TEST(RunningStats, MergeEqualsSingleStream) {
  gr::Xoshiro256StarStar gen(1);
  gs::RunningStats whole, left, right;
  for (int i = 0; i < 1000; ++i) {
    const double x = gr::normal(gen);
    whole.add(x);
    (i < 400 ? left : right).add(x);
  }
  left.merge(right);
  EXPECT_EQ(left.count(), whole.count());
  EXPECT_NEAR(left.mean(), whole.mean(), 1e-10);
  EXPECT_NEAR(left.variance(), whole.variance(), 1e-9);
}

TEST(RunningStats, MergeWithEmpty) {
  gs::RunningStats a, empty;
  a.add(1.0);
  a.add(2.0);
  const double mean = a.mean();
  a.merge(empty);
  EXPECT_NEAR(a.mean(), mean, 1e-15);
  gs::RunningStats b;
  b.merge(a);
  EXPECT_NEAR(b.mean(), mean, 1e-15);
}

TEST(RunningStats, VarianceOfSingleObservationIsZero) {
  gs::RunningStats rs;
  rs.add(42.0);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.stddev(), 0.0);
}

// -------------------------------------------------------------------- Summary

TEST(Summary, KnownSample) {
  const std::vector<double> xs = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
  const auto s = gs::summarize(xs);
  EXPECT_EQ(s.count, 10u);
  EXPECT_NEAR(s.mean, 5.5, 1e-12);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 10.0);
  EXPECT_NEAR(s.p50, 5.5, 1e-12);
}

TEST(Summary, EmptyInput) {
  const auto s = gs::summarize(std::vector<double>{});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Summary, QuantileSortedInterpolates) {
  const std::vector<double> xs = {0.0, 1.0};
  EXPECT_NEAR(gs::quantile_sorted(xs, 0.5), 0.5, 1e-15);
  EXPECT_NEAR(gs::quantile_sorted(xs, 0.25), 0.25, 1e-15);
  EXPECT_DOUBLE_EQ(gs::quantile_sorted(xs, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(gs::quantile_sorted(xs, 1.0), 1.0);
}

// ----------------------------------------------------------------------- tail

TEST(Tail, FitRecoversSyntheticExponential) {
  // mean_count = 100 e^{-0.5 c}  =>  log_a = log 100, b = 0.5.
  std::vector<gs::TailPoint> points;
  for (double c = 1.0; c <= 10.0; c += 1.0) {
    points.push_back({c, 100.0 * std::exp(-0.5 * c), 0.0, 0.0});
  }
  const auto fit = gs::fit_exponential_tail(points);
  EXPECT_EQ(fit.points_used, 10u);
  EXPECT_NEAR(fit.b, 0.5, 1e-9);
  EXPECT_NEAR(fit.log_a, std::log(100.0), 1e-9);
}

TEST(Tail, FitIgnoresZeroCounts) {
  std::vector<gs::TailPoint> points;
  for (double c = 1.0; c <= 5.0; c += 1.0) {
    points.push_back({c, 10.0 * std::exp(-c), 0.0, 0.0});
  }
  points.push_back({99.0, 0.0, 0.0, 0.0});  // must be skipped
  const auto fit = gs::fit_exponential_tail(points);
  EXPECT_EQ(fit.points_used, 5u);
  EXPECT_NEAR(fit.b, 1.0, 1e-9);
}

TEST(Tail, FitDegenerateCases) {
  EXPECT_EQ(gs::fit_exponential_tail({}).points_used, 0u);
  const std::vector<gs::TailPoint> one = {{1.0, 5.0, 0.0, 0.0}};
  EXPECT_EQ(gs::fit_exponential_tail(one).points_used, 1u);
  EXPECT_DOUBLE_EQ(gs::fit_exponential_tail(one).b, 0.0);
}

TEST(Tail, EmpiricalCcdf) {
  const std::vector<double> data = {0.1, 0.2, 0.3, 0.4};
  const std::vector<double> thresholds = {0.0, 0.25, 0.4, 0.5};
  const auto ccdf = gs::empirical_ccdf(data, thresholds);
  ASSERT_EQ(ccdf.size(), 4u);
  EXPECT_DOUBLE_EQ(ccdf[0], 1.0);
  EXPECT_DOUBLE_EQ(ccdf[1], 0.5);
  EXPECT_DOUBLE_EQ(ccdf[2], 0.25);  // >= 0.4 is just {0.4}
  EXPECT_DOUBLE_EQ(ccdf[3], 0.0);
}

// ----------------------------------------------------------------- confidence

TEST(Confidence, WilsonIntervalContainsTruthUsually) {
  // 300/1000 successes: interval should contain 0.3 comfortably.
  const auto iv = gs::wilson_interval(300, 1000);
  EXPECT_TRUE(iv.contains(0.3));
  EXPECT_GT(iv.lo, 0.26);
  EXPECT_LT(iv.hi, 0.34);
}

TEST(Confidence, WilsonEdgeCases) {
  const auto zero = gs::wilson_interval(0, 100);
  EXPECT_DOUBLE_EQ(zero.lo, 0.0);
  EXPECT_TRUE(zero.contains(0.0));
  EXPECT_LT(zero.hi, 0.08);
  const auto all = gs::wilson_interval(100, 100);
  EXPECT_DOUBLE_EQ(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.92);
  const auto none = gs::wilson_interval(0, 0);
  EXPECT_DOUBLE_EQ(none.lo, 0.0);
  EXPECT_DOUBLE_EQ(none.hi, 1.0);
}

TEST(Confidence, WilsonCoverageEmpirically) {
  // At z = 1.96, roughly 95% of intervals should cover the true p.
  gr::Xoshiro256StarStar gen(2);
  const double p = 0.2;
  int covered = 0;
  constexpr int kReps = 2000;
  for (int r = 0; r < kReps; ++r) {
    int s = 0;
    for (int i = 0; i < 200; ++i) s += gr::bernoulli(gen, p);
    covered += gs::wilson_interval(s, 200).contains(p);
  }
  EXPECT_GT(covered / static_cast<double>(kReps), 0.92);
}

TEST(Confidence, ProportionConsistent) {
  EXPECT_TRUE(gs::proportion_consistent(300, 1000, 0.3));
  EXPECT_FALSE(gs::proportion_consistent(300, 1000, 0.5));
}

TEST(Confidence, MeanInterval) {
  const auto iv = gs::mean_interval(10.0, 2.0, 400);
  EXPECT_NEAR(iv.lo, 10.0 - 1.96 * 0.1, 1e-12);
  EXPECT_NEAR(iv.hi, 10.0 + 1.96 * 0.1, 1e-12);
  const auto point = gs::mean_interval(5.0, 1.0, 0);
  EXPECT_DOUBLE_EQ(point.lo, 5.0);
  EXPECT_DOUBLE_EQ(point.hi, 5.0);
}

// ---------------------------------------------------------------- chi-squared

TEST(ChiSquared, CriticalValuesAreTabulatedAtAlphaOnePerMille) {
  EXPECT_DOUBLE_EQ(gs::chi_squared_critical(1), 10.828);
  EXPECT_DOUBLE_EQ(gs::chi_squared_critical(10), 29.588);
  EXPECT_DOUBLE_EQ(gs::chi_squared_critical(63), 103.442);
  EXPECT_DOUBLE_EQ(gs::chi_squared_critical(69), 111.055);
  EXPECT_THROW((void)gs::chi_squared_critical(0), std::out_of_range);
  EXPECT_THROW((void)gs::chi_squared_critical(17), std::out_of_range);
}

TEST(ChiSquared, FitMatchesHandComputedStatistic) {
  const std::vector<double> p = {0.1, 0.2, 0.3, 0.4};
  const std::vector<std::uint64_t> exact = {10, 20, 30, 40};
  const auto same = gs::chi_squared_fit(exact, p);
  EXPECT_DOUBLE_EQ(same.statistic, 0.0);
  EXPECT_EQ(same.dof, 3u);
  EXPECT_FALSE(same.rejects());
  // Expected 10/20/30/40: 15^2/10 + 5^2/20 + 5^2/30 + 15^2/40.
  const std::vector<std::uint64_t> flat = {25, 25, 25, 25};
  const auto off = gs::chi_squared_fit(flat, p);
  EXPECT_NEAR(off.statistic, 22.5 + 1.25 + 25.0 / 30.0 + 5.625, 1e-12);
  EXPECT_TRUE(off.rejects());
}

TEST(ChiSquared, FitMergesBinsExpectedBelowFive) {
  // Expected 4, 6, 90, 100: the first two bins merge into one of 10.
  const std::vector<double> p = {0.02, 0.03, 0.45, 0.5};
  const std::vector<std::uint64_t> obs = {0, 10, 90, 100};
  const auto r = gs::chi_squared_fit(obs, p);
  EXPECT_EQ(r.dof, 2u);
  EXPECT_DOUBLE_EQ(r.statistic, 0.0);
  // A short trailing group joins the one before it.
  const std::vector<double> q = {0.5, 0.49, 0.01};
  const std::vector<std::uint64_t> obs2 = {50, 49, 1};
  EXPECT_EQ(gs::chi_squared_fit(obs2, q).dof, 1u);
}

TEST(ChiSquared, TwoSampleMatchesHandComputedStatistic) {
  const std::vector<std::uint64_t> a = {50, 50};
  const std::vector<std::uint64_t> b = {80, 20};
  const auto r = gs::chi_squared_two_sample(a, b);
  // Pooled expectations 65/65 and 35/35.
  EXPECT_NEAR(r.statistic, 2 * 225.0 / 65.0 + 2 * 225.0 / 35.0, 1e-12);
  EXPECT_EQ(r.dof, 1u);
  EXPECT_TRUE(r.rejects());
  EXPECT_DOUBLE_EQ(gs::chi_squared_two_sample(a, a).statistic, 0.0);
  // Unequal totals scale the expectations, not the verdict.
  const std::vector<std::uint64_t> twice = {100, 100};
  EXPECT_NEAR(gs::chi_squared_two_sample(a, twice).statistic, 0.0, 1e-12);
}

TEST(ChiSquared, RejectsMalformedInput) {
  const std::vector<std::uint64_t> two = {5, 5};
  const std::vector<std::uint64_t> none = {0, 0};
  EXPECT_THROW((void)gs::chi_squared_fit(two, std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW((void)gs::chi_squared_fit(two, std::vector<double>{0.5, 0.6}),
               std::invalid_argument);
  EXPECT_THROW((void)gs::chi_squared_fit(none, std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
  // Two bins of expected count exactly 5 are enough; 2 each are not.
  EXPECT_EQ(gs::chi_squared_fit(two, std::vector<double>{0.5, 0.5}).dof, 1u);
  const std::vector<std::uint64_t> few = {2, 2};
  EXPECT_THROW((void)gs::chi_squared_fit(few, std::vector<double>{0.5, 0.5}),
               std::invalid_argument);
  EXPECT_THROW((void)gs::chi_squared_two_sample(two, none),
               std::invalid_argument);
  EXPECT_THROW(
      (void)gs::chi_squared_two_sample(two, std::vector<std::uint64_t>{1}),
      std::invalid_argument);
}
