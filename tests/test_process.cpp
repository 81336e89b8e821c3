// Tests for the d-choice allocation process: conservation, tie-breaking
// semantics, the d=1 / d>=2 qualitative gap, heights bookkeeping, and the
// Vöcking partitioned scheme.
#include <gtest/gtest.h>

#include <numeric>
#include <tuple>

#include "core/core.hpp"
#include "rng/rng.hpp"
#include "spaces/spaces.hpp"

namespace gc = geochoice::core;
namespace gs = geochoice::spaces;
namespace gr = geochoice::rng;

namespace {

gc::ProcessOptions opts(std::uint64_t m, int d,
                        gc::TieBreak tie = gc::TieBreak::kRandom) {
  gc::ProcessOptions o;
  o.num_balls = m;
  o.num_choices = d;
  o.tie = tie;
  return o;
}

}  // namespace

TEST(Process, RejectsBadArguments) {
  gr::Xoshiro256StarStar gen(1);
  const gs::UniformSpace space(4);
  EXPECT_THROW((void)gc::run_process(space, opts(10, 0), gen),
               std::invalid_argument);
  gc::ProcessOptions o = opts(10, 2);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  // Partitioned sampling needs ring-like (double) locations.
  EXPECT_THROW((void)gc::run_process(space, o, gen), std::invalid_argument);
}

// Conservation across all space kinds and tie strategies.
class ProcessConservation
    : public ::testing::TestWithParam<std::tuple<int, gc::TieBreak>> {};

TEST_P(ProcessConservation, TotalLoadEqualsBallsOnRing) {
  const auto [d, tie] = GetParam();
  gr::Xoshiro256StarStar gen(10 + d);
  const auto space = gs::RingSpace::random(128, gen);
  const auto r = gc::run_process(space, opts(500, d, tie), gen);
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), 0ull), 500ull);
  EXPECT_EQ(r.balls, 500ull);
  EXPECT_EQ(r.max_load,
            *std::max_element(r.loads.begin(), r.loads.end()));
}

TEST_P(ProcessConservation, TotalLoadEqualsBallsOnUniform) {
  const auto [d, tie] = GetParam();
  gr::Xoshiro256StarStar gen(20 + d);
  const gs::UniformSpace space(128);
  const auto r = gc::run_process(space, opts(500, d, tie), gen);
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), 0ull), 500ull);
}

INSTANTIATE_TEST_SUITE_P(
    ChoicesAndTies, ProcessConservation,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values(gc::TieBreak::kRandom,
                                         gc::TieBreak::kFirstChoice,
                                         gc::TieBreak::kSmallerRegion,
                                         gc::TieBreak::kLargerRegion,
                                         gc::TieBreak::kLowestIndex)));

TEST(Process, TorusConservation) {
  gr::Xoshiro256StarStar gen(30);
  const auto space = gs::TorusSpace::random(64, gen);
  const auto r = gc::run_process(space, opts(256, 2), gen);
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), 0ull), 256ull);
}

TEST(Process, TorusSmallerRegionTieNeedsMeasures) {
  gr::Xoshiro256StarStar gen(31);
  auto space = gs::TorusSpace::random(64, gen);
  space.ensure_measures();
  const auto r =
      gc::run_process(space, opts(256, 2, gc::TieBreak::kSmallerRegion), gen);
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), 0ull), 256ull);
}

TEST(Process, HeightsBookkeeping) {
  gr::Xoshiro256StarStar gen(32);
  const gs::UniformSpace space(32);
  gc::ProcessOptions o = opts(200, 2);
  o.record_heights = true;
  const auto r = gc::run_process(space, o, gen);
  // Every ball has a height >= 1; heights sum count = m.
  EXPECT_EQ(r.heights.total(), 200ull);
  EXPECT_EQ(r.balls_with_height_at_least(1), 200ull);
  // The max height equals the max load.
  EXPECT_EQ(r.heights.max_value(), r.max_load);
  // ν_i <= μ_i: a bin with load >= i contributed a ball of height i.
  for (std::uint32_t i = 1; i <= r.max_load; ++i) {
    EXPECT_LE(r.bins_with_load_at_least(i), r.balls_with_height_at_least(i))
        << i;
  }
}

TEST(Process, LoadHistogramConsistent) {
  gr::Xoshiro256StarStar gen(33);
  const gs::UniformSpace space(64);
  const auto r = gc::run_process(space, opts(256, 2), gen);
  const auto h = r.load_histogram();
  EXPECT_EQ(h.total(), 64ull);  // one entry per bin
  EXPECT_EQ(h.max_value(), r.max_load);
}

TEST(Process, SingleBinAbsorbsEverything) {
  gr::Xoshiro256StarStar gen(34);
  const gs::UniformSpace space(1);
  const auto r = gc::run_process(space, opts(100, 3), gen);
  EXPECT_EQ(r.max_load, 100u);
  EXPECT_EQ(r.loads[0], 100u);
}

TEST(Process, ZeroBallsIsValid) {
  gr::Xoshiro256StarStar gen(35);
  const gs::UniformSpace space(8);
  const auto r = gc::run_process(space, opts(0, 2), gen);
  EXPECT_EQ(r.max_load, 0u);
  EXPECT_EQ(std::accumulate(r.loads.begin(), r.loads.end(), 0ull), 0ull);
}

TEST(Process, TwoChoicesBeatOneChoiceOnAverage) {
  // Statistical: mean max load over repetitions must drop from d=1 to d=2.
  const std::size_t n = 512;
  double mean1 = 0.0, mean2 = 0.0;
  constexpr int kReps = 30;
  for (int rep = 0; rep < kReps; ++rep) {
    auto servers = gr::make_stream(99, rep, gr::StreamPurpose::kServerPlacement);
    auto balls = gr::make_stream(99, rep, gr::StreamPurpose::kBallChoices);
    const auto space = gs::RingSpace::random(n, servers);
    auto balls2 = balls;
    mean1 += gc::run_process(space, opts(n, 1), balls).max_load;
    mean2 += gc::run_process(space, opts(n, 2), balls2).max_load;
  }
  mean1 /= kReps;
  mean2 /= kReps;
  EXPECT_GT(mean1, mean2 + 1.0)
      << "two choices should cut the max load substantially";
}

TEST(Process, MoreChoicesNeverHelpMuchPastTwo) {
  // d = 4 improves on d = 2 by at most ~1-2 at this scale — and must not be
  // worse on average (the classic diminishing-returns shape).
  const std::size_t n = 512;
  double mean2 = 0.0, mean4 = 0.0;
  constexpr int kReps = 30;
  for (int rep = 0; rep < kReps; ++rep) {
    auto servers =
        gr::make_stream(123, rep, gr::StreamPurpose::kServerPlacement);
    auto balls = gr::make_stream(123, rep, gr::StreamPurpose::kBallChoices);
    const auto space = gs::RingSpace::random(n, servers);
    auto balls2 = balls;
    mean2 += gc::run_process(space, opts(n, 2), balls).max_load;
    mean4 += gc::run_process(space, opts(n, 4), balls2).max_load;
  }
  mean2 /= kReps;
  mean4 /= kReps;
  EXPECT_GE(mean2 + 0.5, mean4);
  EXPECT_LE(mean2 - mean4, 2.5);
}

TEST(Process, TieBreakSemanticsOnCraftedSpace) {
  // Two bins with very different measures: bin 0 owns [0.0, 0.9), bin 1
  // owns [0.9, 1.0). With equal loads, kSmallerRegion must pick bin 1 and
  // kLargerRegion bin 0 whenever both bins are probed.
  const gs::RingSpace space({0.0, 0.9});
  ASSERT_NEAR(space.region_measure(0), 0.9, 1e-12);
  ASSERT_NEAR(space.region_measure(1), 0.1, 1e-12);

  // Drive the process for exactly one ball many times; whenever the two
  // probes hit different bins (which have equal load 0), the tie rule
  // decides. Count where the ball lands.
  int smaller_hits_small = 0, larger_hits_large = 0, both_probed = 0;
  for (int rep = 0; rep < 2000; ++rep) {
    gr::Xoshiro256StarStar g1(5000 + rep);
    auto g2 = g1;
    const auto r_small = gc::run_process(
        space, opts(1, 2, gc::TieBreak::kSmallerRegion), g1);
    const auto r_large = gc::run_process(
        space, opts(1, 2, gc::TieBreak::kLargerRegion), g2);
    // Identical randomness => identical probes. If the outcomes differ the
    // two probes hit different bins.
    if (r_small.loads != r_large.loads) {
      ++both_probed;
      smaller_hits_small += (r_small.loads[1] == 1);
      larger_hits_large += (r_large.loads[0] == 1);
    }
  }
  ASSERT_GT(both_probed, 100);  // 2*0.9*0.1*2000 = 360 expected
  EXPECT_EQ(smaller_hits_small, both_probed);
  EXPECT_EQ(larger_hits_large, both_probed);
}

TEST(Process, FirstChoiceTiePrefersFirstProbe) {
  // kLowestIndex vs kFirstChoice on a two-bin uniform space: with one ball
  // and probes (bin1, bin0), FirstChoice keeps bin1, LowestIndex picks bin0.
  const gs::UniformSpace space(2);
  int divergences = 0;
  for (int rep = 0; rep < 500; ++rep) {
    gr::Xoshiro256StarStar g1(9000 + rep);
    auto g2 = g1;
    const auto rf =
        gc::run_process(space, opts(1, 2, gc::TieBreak::kFirstChoice), g1);
    const auto rl =
        gc::run_process(space, opts(1, 2, gc::TieBreak::kLowestIndex), g2);
    EXPECT_EQ(rl.loads[0] == 1 || rl.loads[1] == 1, true);
    if (rf.loads != rl.loads) {
      // Divergence can only happen when FirstChoice kept the higher index.
      EXPECT_EQ(rf.loads[1], 1u);
      EXPECT_EQ(rl.loads[0], 1u);
      ++divergences;
    }
  }
  EXPECT_GT(divergences, 50);  // probes (1,0) occur w.p. 1/4
}

TEST(Process, PartitionedSchemeSamplesWithinIntervals) {
  // With the partitioned scheme on an equally-spaced ring of d bins, probe
  // j always lands in bin j; with FirstChoice ties everything goes to the
  // least-loaded lowest interval — loads stay perfectly balanced.
  const int d = 4;
  const auto space = gs::RingSpace::equally_spaced(d);
  gr::Xoshiro256StarStar gen(40);
  gc::ProcessOptions o = opts(400, d, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  const auto r = gc::run_process(space, o, gen);
  for (std::uint32_t load : r.loads) EXPECT_EQ(load, 100u);
}

TEST(Process, VockingBeatsOrMatchesRandomTies) {
  // Vöcking's scheme (partitioned + go-left) should not be worse than
  // independent probes with random ties, on average.
  const std::size_t n = 1024;
  double vocking = 0.0, plain = 0.0;
  constexpr int kReps = 25;
  for (int rep = 0; rep < kReps; ++rep) {
    auto servers =
        gr::make_stream(321, rep, gr::StreamPurpose::kServerPlacement);
    auto balls = gr::make_stream(321, rep, gr::StreamPurpose::kBallChoices);
    const auto space = gs::RingSpace::random(n, servers);
    auto balls2 = balls;
    gc::ProcessOptions ov = opts(n, 2, gc::TieBreak::kFirstChoice);
    ov.scheme = gc::ChoiceScheme::kPartitioned;
    vocking += gc::run_process(space, ov, balls).max_load;
    plain += gc::run_process(space, opts(n, 2), balls2).max_load;
  }
  EXPECT_LE(vocking, plain + 0.5 * kReps);  // allow sampling noise
}
