// Golden regression tests — exact pinned outputs for fixed seeds.
//
// Every experiment in this repository is a pure function of its master
// seed (README "Reproducibility"). These tests freeze a handful of
// end-to-end outputs so that any change to an engine, a distribution, the
// stream-derivation scheme, the geometry, or the process inner loop that
// silently alters published numbers fails CI loudly. When such a change
// is *intentional*, regenerate the constants and say so in the commit.
#include <gtest/gtest.h>

#include <vector>

#include "dht/dht.hpp"
#include "geometry/geometry.hpp"
#include "rng/rng.hpp"
#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace gr = geochoice::rng;
namespace gg = geochoice::geometry;
namespace gd = geochoice::dht;

TEST(Golden, Xoshiro256StarStarSeed42) {
  gr::Xoshiro256StarStar x(42);
  EXPECT_EQ(x(), 1546998764402558742ULL);
  EXPECT_EQ(x(), 6990951692964543102ULL);
  EXPECT_EQ(x(), 12544586762248559009ULL);
}

TEST(Golden, PhiloxHash) {
  EXPECT_EQ(gr::philox_hash(42, 7), 7527850912803292081ULL);
}

TEST(Golden, RingExperimentHistogram) {
  gm::Scenario sc;
  sc.space = gm::SpaceKind::kRing;
  sc.engine = gm::Engine::kScalar;
  sc.num_servers = 256;
  sc.num_choices = 2;
  sc.trials = 50;
  sc.seed = 12345;
  const auto h = gm::run(sc).max_load;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {3, 12}, {4, 37}, {5, 1}};
  EXPECT_EQ(h.items(), want);
}

TEST(Golden, TorusExperimentHistogram) {
  gm::Scenario sc;
  sc.space = gm::SpaceKind::kTorus;
  sc.engine = gm::Engine::kScalar;
  sc.num_servers = 256;
  sc.num_choices = 2;
  sc.trials = 20;
  sc.seed = 12345;
  const auto h = gm::run(sc).max_load;
  const std::vector<std::pair<std::uint64_t, std::uint64_t>> want = {
      {3, 18}, {4, 2}};
  EXPECT_EQ(h.items(), want);
}

TEST(Golden, VoronoiAreasFixedConfiguration) {
  const std::vector<gg::Vec2> sites = {
      {0.1, 0.2}, {0.7, 0.3}, {0.4, 0.9}, {0.95, 0.85}};
  const gg::SpatialGrid grid(sites);
  const auto areas = gg::voronoi_areas(grid);
  ASSERT_EQ(areas.size(), 4u);
  EXPECT_NEAR(areas[0], 0.230229242628, 1e-11);
  EXPECT_NEAR(areas[1], 0.266550727519, 1e-11);
  EXPECT_NEAR(areas[2], 0.259554531019, 1e-11);
  EXPECT_NEAR(areas[3], 0.243665498835, 1e-11);
}

TEST(Golden, ChordLookupFixedSeed) {
  gr::DefaultEngine g(5);
  auto ring = gd::ChordRing::random(64, g);
  ring.build_fingers();
  const auto res = ring.lookup(0, 0.777);
  EXPECT_EQ(res.owner, 51u);
  EXPECT_EQ(res.hops, 5u);
}
