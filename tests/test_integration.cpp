// Integration tests pinning the paper's experimental findings at n = 2^8
// (the scale where 1000 trials run in seconds). Tolerances use generous
// Monte-Carlo bands around the paper's Table 1/2/3 percentages.
#include <gtest/gtest.h>

#include "sim/sim.hpp"
#include "stats/confidence.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

namespace {

/// The scalar engine: the reference oracle these bands were drawn for.
gm::Scenario base(gm::SpaceKind space, std::uint64_t n, int d,
                  std::uint64_t trials) {
  gm::Scenario sc;
  sc.space = space;
  sc.engine = gm::Engine::kScalar;
  sc.num_servers = n;
  sc.num_choices = d;
  sc.trials = trials;
  sc.seed = 0x7ab1e5;
  return sc;
}

geochoice::stats::IntHistogram max_loads(const gm::Scenario& sc) {
  return gm::run(sc).max_load;
}

}  // namespace

// ----------------------------- Table 1 (ring), n = 2^8, 1000 trials -------

TEST(Table1Shape, RingD1HasWideHighDistribution) {
  // Paper row: max load 5..12+, mode at 7-8, mean ~ 8.
  const auto h = max_loads(base(gm::SpaceKind::kRing, 256, 1, 500));
  EXPECT_GE(h.min_value(), 4u);
  EXPECT_GE(h.mean(), 6.5);
  EXPECT_LE(h.mean(), 9.5);
}

TEST(Table1Shape, RingD2ConcentratesOnFour) {
  // Paper: 3 -> 26.8%, 4 -> 70.0%, 5 -> 3.2%.
  const auto h = max_loads(base(gm::SpaceKind::kRing, 256, 2, 1000));
  EXPECT_GE(h.fraction(4), 0.55);
  EXPECT_LE(h.fraction(4), 0.85);
  EXPECT_GE(h.fraction(3), 0.10);
  EXPECT_LE(h.fraction(3), 0.45);
  EXPECT_GE(h.fraction(3) + h.fraction(4) + h.fraction(5), 0.985);
}

TEST(Table1Shape, RingD3ConcentratesOnThree) {
  // Paper: 2 -> 0.1%, 3 -> 97.9%, 4 -> 2.0%.
  const auto h = max_loads(base(gm::SpaceKind::kRing, 256, 3, 1000));
  EXPECT_GE(h.fraction(3), 0.90);
}

TEST(Table1Shape, RingD4SplitsTwoAndThree) {
  // Paper: 2 -> 13.1%, 3 -> 86.9%.
  const auto h = max_loads(base(gm::SpaceKind::kRing, 256, 4, 1000));
  EXPECT_GE(h.fraction(2) + h.fraction(3), 0.99);
  EXPECT_GE(h.fraction(3), 0.70);
  EXPECT_GE(h.fraction(2), 0.03);
}

TEST(Table1Shape, RingMaxLoadGrowsSlowlyWithN) {
  // d = 2: between n = 2^8 and n = 2^12 the mode moves from 4 to ~4-5
  // (paper: 4 at 2^8, 4-5 at 2^12) — the log log creep.
  const auto h8 = max_loads(base(gm::SpaceKind::kRing, 1 << 8, 2, 300));
  const auto h12 = max_loads(base(gm::SpaceKind::kRing, 1 << 12, 2, 300));
  EXPECT_GE(h12.mean(), h8.mean());
  EXPECT_LE(h12.mean() - h8.mean(), 1.5);
}

TEST(Table1Shape, RingD1GrowsMuchFasterWithN) {
  const auto h8 = max_loads(base(gm::SpaceKind::kRing, 1 << 8, 1, 200));
  const auto h12 = max_loads(base(gm::SpaceKind::kRing, 1 << 12, 1, 200));
  // Paper: mean moves ~8 -> ~12 between 2^8 and 2^12.
  EXPECT_GE(h12.mean() - h8.mean(), 2.0);
}

// ----------------------------- Table 2 (torus), n = 2^8 -------------------

TEST(Table2Shape, TorusD1ModerateSpread) {
  // Paper: 4 -> 4%, 5 -> 38.4%, 6 -> 35.5%, 7 -> 16.3%; mean ~ 5.8.
  const auto h = max_loads(base(gm::SpaceKind::kTorus, 256, 1, 400));
  EXPECT_GE(h.mean(), 5.0);
  EXPECT_LE(h.mean(), 7.0);
}

TEST(Table2Shape, TorusD2ConcentratesOnThree) {
  // Paper: 2 -> 0.2%, 3 -> 95.6%, 4 -> 4.2%.
  const auto h = max_loads(base(gm::SpaceKind::kTorus, 256, 2, 500));
  EXPECT_GE(h.fraction(3), 0.85);
}

TEST(Table2Shape, TorusD3SplitsTwoAndThree) {
  // Paper: 2 -> 45.0%, 3 -> 55.0%.
  const auto h = max_loads(base(gm::SpaceKind::kTorus, 256, 3, 500));
  EXPECT_GE(h.fraction(2) + h.fraction(3), 0.99);
  EXPECT_GE(h.fraction(2), 0.25);
  EXPECT_GE(h.fraction(3), 0.30);
}

TEST(Table2Shape, TorusBeatsRingAtSameParameters) {
  // Voronoi cells have a lighter tail than arcs (e^{-c/6} with 6x the mass
  // vs e^{-c}): empirically the torus d=1 max load is *smaller* than the
  // ring's at the same n (paper: torus 2^8 d=1 mean ~5.8 vs ring ~8).
  const auto ring = max_loads(base(gm::SpaceKind::kRing, 256, 1, 300));
  const auto torus = max_loads(base(gm::SpaceKind::kTorus, 256, 1, 300));
  EXPECT_LT(torus.mean() + 1.0, ring.mean());
}

// ----------------------------- Table 3 (tie-breaking), d = 2 --------------

TEST(Table3Shape, SmallerBeatsRandomBeatsLarger) {
  // Paper at 2^12: larger {4:39.7%,5:60.2%}, random {4:88.1%,5:11.8%},
  // smaller {3:1.7%,4:97.9%,5:0.4%} — mean(larger) > mean(random) >
  // mean(smaller).
  auto sc = base(gm::SpaceKind::kRing, 1 << 12, 2, 400);
  sc.tie = gc::TieBreak::kLargerRegion;
  const double larger = max_loads(sc).mean();
  sc.tie = gc::TieBreak::kRandom;
  const double random_mean = max_loads(sc).mean();
  sc.tie = gc::TieBreak::kSmallerRegion;
  const double smaller = max_loads(sc).mean();
  EXPECT_GT(larger, random_mean + 0.1);
  EXPECT_GT(random_mean, smaller + 0.02);
}

TEST(Table3Shape, SmallerRegionConcentratesAtFourAt2To12) {
  auto sc = base(gm::SpaceKind::kRing, 1 << 12, 2, 400);
  sc.tie = gc::TieBreak::kSmallerRegion;
  const auto h = max_loads(sc);
  // Paper: 97.9% at 4.
  EXPECT_GE(h.fraction(4), 0.85);
}

TEST(Table3Shape, ArcLeftCloseToVocking) {
  // "arc-left" (first-choice ties) at 2^12: 4 -> 99.9%.
  auto sc = base(gm::SpaceKind::kRing, 1 << 12, 2, 400);
  sc.tie = gc::TieBreak::kFirstChoice;
  const auto h = max_loads(sc);
  EXPECT_GE(h.fraction(4), 0.85);
}

// ----------------------------- cross-space sanity -------------------------

TEST(CrossSpace, GeometricSpacesTrackUniformWithinConstant) {
  // Theorem 1's punchline: ring/torus d=2 max loads sit within O(1) of the
  // uniform baseline.
  const auto uni = max_loads(base(gm::SpaceKind::kUniform, 1 << 12, 2, 300));
  const auto ring = max_loads(base(gm::SpaceKind::kRing, 1 << 12, 2, 300));
  const auto torus = max_loads(base(gm::SpaceKind::kTorus, 1 << 12, 2, 100));
  EXPECT_LE(ring.mean() - uni.mean(), 2.0);
  EXPECT_LE(torus.mean() - uni.mean(), 2.0);
  EXPECT_GE(ring.mean(), uni.mean() - 0.5);
}
