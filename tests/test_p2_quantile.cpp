// Tests for the P² streaming quantile estimator: exactness below five
// observations, accuracy against exact quantiles on known distributions,
// and the adversarial sorted streams that defeat naive reservoir tricks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "rng/rng.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/summary.hpp"

namespace gst = geochoice::stats;
namespace gr = geochoice::rng;

namespace {

double exact_quantile(std::vector<double> data, double q) {
  std::sort(data.begin(), data.end());
  return gst::quantile_sorted(data, q);
}

}  // namespace

TEST(P2Quantile, RejectsBadProbability) {
  EXPECT_THROW(gst::P2Quantile(0.0), std::invalid_argument);
  EXPECT_THROW(gst::P2Quantile(1.0), std::invalid_argument);
  EXPECT_THROW(gst::P2Quantile(-0.5), std::invalid_argument);
}

TEST(P2Quantile, EmptyIsZero) {
  const gst::P2Quantile p2(0.5);
  EXPECT_EQ(p2.count(), 0u);
  EXPECT_DOUBLE_EQ(p2.value(), 0.0);
}

TEST(P2Quantile, ExactBelowFiveObservations) {
  gst::P2Quantile p2(0.5);
  p2.add(3.0);
  EXPECT_DOUBLE_EQ(p2.value(), 3.0);
  p2.add(1.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);  // interpolated median of {1, 3}
  p2.add(2.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.0);  // median of {1, 2, 3}
  p2.add(10.0);
  EXPECT_DOUBLE_EQ(p2.value(), 2.5);  // median of {1, 2, 3, 10}
  EXPECT_EQ(p2.count(), 4u);
}

TEST(P2Quantile, MatchesExactQuantilesOnUniform) {
  gr::DefaultEngine gen(7);
  std::vector<double> data(100000);
  for (double& x : data) x = gr::uniform01(gen);
  for (const double q : {0.5, 0.9, 0.99}) {
    gst::P2Quantile p2(q);
    for (const double x : data) p2.add(x);
    EXPECT_NEAR(p2.value(), exact_quantile(data, q), 5e-3) << "q = " << q;
    EXPECT_NEAR(p2.value(), q, 1e-2) << "q = " << q;  // theoretical value
    EXPECT_EQ(p2.count(), data.size());
  }
}

TEST(P2Quantile, MatchesExactQuantilesOnExponential) {
  gr::DefaultEngine gen(8);
  std::vector<double> data(100000);
  for (double& x : data) x = gr::exponential(gen, 1.0);
  for (const double q : {0.5, 0.9, 0.99}) {
    gst::P2Quantile p2(q);
    for (const double x : data) p2.add(x);
    const double exact = exact_quantile(data, q);
    EXPECT_NEAR(p2.value(), exact, 0.02 * exact) << "q = " << q;
    // Theoretical quantile of Exp(1): -ln(1 - q).
    const double theory = -std::log1p(-q);
    EXPECT_NEAR(p2.value(), theory, 0.05 * theory) << "q = " << q;
  }
}

TEST(P2Quantile, SurvivesAdversarialSortedInput) {
  // A fully sorted stream is the classic stressor: every observation lands
  // in the rightmost (or leftmost) cell, so the markers must chase the
  // quantile across the whole range.
  constexpr int kN = 100000;
  for (const double q : {0.5, 0.9, 0.99}) {
    gst::P2Quantile asc(q);
    for (int i = 1; i <= kN; ++i) asc.add(static_cast<double>(i));
    EXPECT_NEAR(asc.value(), q * kN, 0.01 * q * kN) << "ascending q=" << q;

    gst::P2Quantile desc(q);
    for (int i = kN; i >= 1; --i) desc.add(static_cast<double>(i));
    EXPECT_NEAR(desc.value(), q * kN, 0.01 * q * kN) << "descending q=" << q;
  }
}

TEST(P2Quantile, ConstantStreamIsExact) {
  gst::P2Quantile p2(0.9);
  for (int i = 0; i < 1000; ++i) p2.add(4.25);
  EXPECT_DOUBLE_EQ(p2.value(), 4.25);
}

TEST(P2QuantileSet, MatchesIndividualEstimators) {
  gr::DefaultEngine gen(9);
  gst::P2QuantileSet set({0.5, 0.9, 0.99});
  gst::P2Quantile p50(0.5), p90(0.9), p99(0.99);
  for (int i = 0; i < 20000; ++i) {
    const double x = gr::exponential(gen, 0.25);
    set.add(x);
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  ASSERT_EQ(set.size(), 3u);
  EXPECT_DOUBLE_EQ(set.value(0), p50.value());
  EXPECT_DOUBLE_EQ(set.value(1), p90.value());
  EXPECT_DOUBLE_EQ(set.value(2), p99.value());
  EXPECT_DOUBLE_EQ(set.probability(2), 0.99);
  EXPECT_EQ(set.count(), 20000u);
  // Quantile estimates must be monotone in q on any sample.
  EXPECT_LE(set.value(0), set.value(1));
  EXPECT_LE(set.value(1), set.value(2));
}

TEST(P2QuantileSet, EstimatesNeverCross) {
  // Three regimes in thirds, each a share of zeros and a narrow band: fed
  // to independent estimators, this stream puts the p90 estimate (158.41)
  // above the p99 one (156.55). The set reads the estimates sorted.
  struct Part {
    double zeros, lo, hi;
  };
  constexpr Part kParts[3] = {
      {0.05, 42.0, 169.0}, {0.28, 154.0, 160.0}, {0.17, 93.0, 103.0}};
  constexpr int kValues = 1123;
  gr::DefaultEngine gen(7);
  gst::P2QuantileSet set({0.5, 0.9, 0.99});
  gst::P2Quantile p50(0.5), p90(0.9), p99(0.99);
  for (int i = 0; i < kValues; ++i) {
    const Part& part = kParts[i * 3 / kValues];
    const double x = gr::bernoulli(gen, part.zeros)
                         ? 0.0
                         : std::floor(gr::uniform_real(gen, part.lo, part.hi));
    set.add(x);
    p50.add(x);
    p90.add(x);
    p99.add(x);
  }
  ASSERT_GT(p90.value(), p99.value());  // the estimators cross
  EXPECT_DOUBLE_EQ(set.value(0), p50.value());
  EXPECT_DOUBLE_EQ(set.value(1), p99.value());
  EXPECT_DOUBLE_EQ(set.value(2), p90.value());
}

TEST(P2QuantileSet, RejectsDescendingProbabilities) {
  EXPECT_THROW(gst::P2QuantileSet({0.9, 0.5}), std::invalid_argument);
}
