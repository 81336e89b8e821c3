// Edge-case and cross-module tests that don't belong to a single module
// suite: degenerate configurations, theory-vs-simulation cross-checks,
// and experiment-runner plumbing details.
#include <gtest/gtest.h>

#include <numeric>

#include "core/core.hpp"
#include "dht/chord.hpp"
#include "rng/rng.hpp"
#include "sim/sim.hpp"
#include "spaces/spaces.hpp"

namespace gc = geochoice::core;
namespace gs = geochoice::spaces;
namespace gr = geochoice::rng;
namespace gm = geochoice::sim;
namespace gd = geochoice::dht;
namespace th = geochoice::core::theory;

TEST(EdgeCases, RingSpaceWithDuplicatePositions) {
  // Two servers at the same point: one owns a zero-length arc; ownership
  // stays well-defined and total measure is 1.
  const gs::RingSpace space({0.25, 0.25, 0.75});
  EXPECT_EQ(space.bin_count(), 3u);
  double total = 0.0;
  for (gs::BinIndex i = 0; i < 3; ++i) total += space.region_measure(i);
  EXPECT_NEAR(total, 1.0, 1e-15);
  // The first of the duplicates owns a zero arc; queries at 0.25 resolve
  // to the *last* server at that position (upper_bound semantics).
  EXPECT_EQ(space.owner(0.25), 1u);
  EXPECT_EQ(space.owner(0.3), 1u);
  gr::DefaultEngine gen(1);
  gc::ProcessOptions opt;
  opt.num_balls = 100;
  opt.num_choices = 2;
  const auto r = gc::run_process(space, opt, gen);
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), 0u), 100u);
}

TEST(EdgeCases, ProcessWithMoreChoicesThanBins) {
  gr::DefaultEngine gen(2);
  const gs::UniformSpace space(2);
  gc::ProcessOptions opt;
  opt.num_balls = 100;
  opt.num_choices = 8;  // d >> n: every ball sees both bins almost surely
  const auto r = gc::run_process(space, opt, gen);
  // Perfectly balanced except possibly the last ball.
  EXPECT_LE(r.max_load, 51u);
  EXPECT_GE(r.max_load, 50u);
}

TEST(EdgeCases, PoissonMaxLoadCdfMatchesSimulation) {
  // d = 1 uniform: P(max load <= k) from theory vs 400 trials at n = 1024.
  const std::uint64_t n = 1024;
  gm::Scenario sc;
  sc.space = gm::SpaceKind::kUniform;
  sc.engine = gm::Engine::kScalar;
  sc.num_servers = n;
  sc.num_choices = 1;
  sc.trials = 400;
  const auto h = gm::run(sc).max_load;
  for (std::uint64_t k = 5; k <= 9; ++k) {
    double measured_cdf = 0.0;
    for (std::uint64_t v = 0; v <= k; ++v) measured_cdf += h.fraction(v);
    const double predicted = th::poisson_max_load_cdf(
        static_cast<double>(n), static_cast<double>(n),
        static_cast<double>(k));
    EXPECT_NEAR(measured_cdf, predicted, 0.12) << "k=" << k;
  }
}

TEST(EdgeCases, ExperimentRunnerHonoursPartitionedScheme) {
  // Vöcking through the harness: partitioned + first-choice should be
  // stochastically no worse than random ties at the same seed budget.
  gm::Scenario random_sc;
  random_sc.engine = gm::Engine::kScalar;
  random_sc.num_servers = 1 << 12;
  random_sc.trials = 150;
  gm::Scenario vocking_sc = random_sc;
  vocking_sc.tie = gc::TieBreak::kFirstChoice;
  vocking_sc.scheme = gc::ChoiceScheme::kPartitioned;
  const double r = gm::run(random_sc).mean_max_load();
  const double v = gm::run(vocking_sc).mean_max_load();
  EXPECT_LE(v, r + 0.05);
}

TEST(EdgeCases, ChordRingWithOneFingerStillTerminates) {
  gr::DefaultEngine gen(3);
  auto ring = gd::ChordRing::random(64, gen);
  ring.build_fingers(1);  // only the halfway finger: worst routing
  for (int q = 0; q < 100; ++q) {
    const double key = gr::uniform01(gen);
    const auto res = ring.lookup(
        static_cast<std::uint32_t>(gr::uniform_below(gen, 64)), key);
    ASSERT_EQ(res.owner, ring.successor(key));
    ASSERT_LE(res.hops, 64u);
  }
}

TEST(EdgeCases, WeightedSpaceSingleBin) {
  const gs::WeightedSpace space(std::vector<double>{3.0});
  EXPECT_EQ(space.bin_count(), 1u);
  EXPECT_DOUBLE_EQ(space.region_measure(0), 1.0);
  gr::DefaultEngine gen(4);
  EXPECT_EQ(space.owner(space.sample(gen)), 0u);
}

TEST(EdgeCases, TorusSampleAlwaysInFundamentalDomain) {
  gr::DefaultEngine gen(5);
  const auto space = gs::TorusSpace::random(16, gen);
  for (int i = 0; i < 1000; ++i) {
    const auto p = space.sample(gen);
    ASSERT_GE(p.x, 0.0);
    ASSERT_LT(p.x, 1.0);
    ASSERT_GE(p.y, 0.0);
    ASSERT_LT(p.y, 1.0);
  }
}

TEST(EdgeCases, HistogramQuantileAtZero) {
  geochoice::stats::IntHistogram h;
  h.add(5, 3);
  h.add(9, 1);
  EXPECT_EQ(h.quantile(0.0), 5u);
  EXPECT_EQ(h.quantile(1.0), 9u);
}

TEST(EdgeCases, TieBreakStringsRoundTrip) {
  using gc::TieBreak;
  for (TieBreak t : {TieBreak::kRandom, TieBreak::kFirstChoice,
                     TieBreak::kSmallerRegion, TieBreak::kLargerRegion,
                     TieBreak::kLowestIndex}) {
    EXPECT_EQ(gc::tie_break_from_string(std::string(gc::to_string(t))), t);
  }
  // Paper aliases.
  EXPECT_EQ(gc::tie_break_from_string("arc-smaller"),
            TieBreak::kSmallerRegion);
  EXPECT_EQ(gc::tie_break_from_string("arc-left"), TieBreak::kFirstChoice);
  EXPECT_THROW(gc::tie_break_from_string("bogus"), std::invalid_argument);
}

TEST(EdgeCases, NeedsRegionMeasurePredicate) {
  EXPECT_TRUE(gc::needs_region_measure(gc::TieBreak::kSmallerRegion));
  EXPECT_TRUE(gc::needs_region_measure(gc::TieBreak::kLargerRegion));
  EXPECT_FALSE(gc::needs_region_measure(gc::TieBreak::kRandom));
  EXPECT_FALSE(gc::needs_region_measure(gc::TieBreak::kFirstChoice));
  EXPECT_FALSE(gc::needs_region_measure(gc::TieBreak::kLowestIndex));
}

TEST(EdgeCases, EquallySpacedRingDistributesPerfectlyUnderPartition) {
  // Partitioned sampling with n = d bins equally spaced: probe j lands in
  // bin j always, so kLowestIndex ties also give perfect balance.
  const auto space = gs::RingSpace::equally_spaced(4);
  gr::DefaultEngine gen(6);
  gc::ProcessOptions opt;
  opt.num_balls = 40;
  opt.num_choices = 4;
  opt.scheme = gc::ChoiceScheme::kPartitioned;
  opt.tie = gc::TieBreak::kLowestIndex;
  const auto r = gc::run_process(space, opt, gen);
  for (auto l : r.loads) EXPECT_EQ(l, 10u);
}
