// Tests for the Chord ring, finger-table routing, virtual servers, the
// two-choice DHT, and workload generation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "dht/dht.hpp"
#include "stats/summary.hpp"

namespace gd = geochoice::dht;
namespace gr = geochoice::rng;

TEST(ChordRing, RejectsBadInput) {
  EXPECT_THROW(gd::ChordRing(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(gd::ChordRing({0.5, 1.0}), std::invalid_argument);
}

TEST(ChordRing, SuccessorSemantics) {
  const gd::ChordRing ring({0.1, 0.4, 0.8});
  EXPECT_EQ(ring.successor(0.05), 0u);
  EXPECT_EQ(ring.successor(0.1), 0u);   // inclusive
  EXPECT_EQ(ring.successor(0.2), 1u);
  EXPECT_EQ(ring.successor(0.5), 2u);
  EXPECT_EQ(ring.successor(0.9), 0u);   // wraps
}

TEST(ChordRing, OwnedArcsSumToOne) {
  gr::Xoshiro256StarStar gen(1);
  const auto ring = gd::ChordRing::random(256, gen);
  double total = 0.0;
  for (std::uint32_t i = 0; i < ring.node_count(); ++i) {
    total += ring.owned_arc(i);
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(ChordRing, SuccessorMatchesBruteForce) {
  gr::Xoshiro256StarStar gen(2);
  const auto ring = gd::ChordRing::random(100, gen);
  for (int q = 0; q < 1000; ++q) {
    const double key = gr::uniform01(gen);
    // Brute force: smallest id >= key, else node 0.
    std::uint32_t want = 0;
    bool found = false;
    for (std::uint32_t i = 0; i < ring.node_count(); ++i) {
      if (ring.node_id(i) >= key) {
        want = i;
        found = true;
        break;
      }
    }
    if (!found) want = 0;
    ASSERT_EQ(ring.successor(key), want) << key;
  }
}

TEST(ChordRing, LookupRequiresFingers) {
  gr::Xoshiro256StarStar gen(3);
  const auto ring = gd::ChordRing::random(16, gen);
  EXPECT_THROW((void)ring.lookup(0, 0.5), std::logic_error);
}

TEST(ChordRing, LookupFindsOwnerFromEveryStart) {
  gr::Xoshiro256StarStar gen(4);
  auto ring = gd::ChordRing::random(128, gen);
  ring.build_fingers();
  for (int q = 0; q < 200; ++q) {
    const double key = gr::uniform01(gen);
    const auto start = static_cast<std::uint32_t>(
        gr::uniform_below(gen, ring.node_count()));
    const auto res = ring.lookup(start, key);
    ASSERT_EQ(res.owner, ring.successor(key));
    ASSERT_LE(res.hops, ring.node_count());
  }
}

TEST(ChordRing, LookupIsLogarithmicOnAverage) {
  gr::Xoshiro256StarStar gen(5);
  const std::size_t n = 1024;
  auto ring = gd::ChordRing::random(n, gen);
  ring.build_fingers();
  double total_hops = 0.0;
  constexpr int kQ = 2000;
  for (int q = 0; q < kQ; ++q) {
    const double key = gr::uniform01(gen);
    const auto start =
        static_cast<std::uint32_t>(gr::uniform_below(gen, n));
    total_hops += ring.lookup(start, key).hops;
  }
  const double mean_hops = total_hops / kQ;
  const double log2n = std::log2(static_cast<double>(n));
  EXPECT_LT(mean_hops, 1.5 * log2n);  // Chord: ~ (1/2) log2 n expected
  EXPECT_GT(mean_hops, 0.2 * log2n);
}

TEST(ChordRing, SingleNodeLookupIsFree) {
  gd::ChordRing ring(std::vector<double>{0.5});
  ring.build_fingers();
  const auto res = ring.lookup(0, 0.123);
  EXPECT_EQ(res.owner, 0u);
  EXPECT_EQ(res.hops, 0u);
}

// --------------------------------------------------------- VirtualServerRing

TEST(VirtualServers, RejectsZeroCounts) {
  gr::Xoshiro256StarStar gen(6);
  EXPECT_THROW(gd::VirtualServerRing(0, 4, gen), std::invalid_argument);
  EXPECT_THROW(gd::VirtualServerRing(4, 0, gen), std::invalid_argument);
}

TEST(VirtualServers, ArcsSumToOneAndCountsMatch) {
  gr::Xoshiro256StarStar gen(7);
  const gd::VirtualServerRing vsr(64, 8, gen);
  EXPECT_EQ(vsr.physical_count(), 64u);
  EXPECT_EQ(vsr.ring().node_count(), 64u * 8u);
  const auto arcs = vsr.owned_arc_per_physical();
  EXPECT_NEAR(std::accumulate(arcs.begin(), arcs.end(), 0.0), 1.0, 1e-12);
}

TEST(VirtualServers, EveryVnodeMapsToValidPhysical) {
  gr::Xoshiro256StarStar gen(8);
  const gd::VirtualServerRing vsr(16, 4, gen);
  std::vector<int> vnodes_of(16, 0);
  for (std::uint32_t v = 0; v < vsr.ring().node_count(); ++v) {
    const auto p = vsr.physical_of(v);
    ASSERT_LT(p, 16u);
    ++vnodes_of[p];
  }
  for (int c : vnodes_of) EXPECT_EQ(c, 4);
}

TEST(VirtualServers, ReduceArcVarianceVsPlainRing) {
  gr::Xoshiro256StarStar gen(9);
  const std::size_t n = 128;
  // Plain ring: arc lengths are Exp-like with CV ~ 1. Virtual servers with
  // v = 16: CV drops by ~ 1/sqrt(16).
  const auto plain = gd::ChordRing::random(n, gen);
  std::vector<double> plain_arcs(n);
  for (std::uint32_t i = 0; i < n; ++i) plain_arcs[i] = plain.owned_arc(i);
  const gd::VirtualServerRing vsr(n, 16, gen);
  const auto virt_arcs = vsr.owned_arc_per_physical();

  geochoice::stats::RunningStats sp, sv;
  for (double a : plain_arcs) sp.add(a);
  for (double a : virt_arcs) sv.add(a);
  EXPECT_LT(sv.stddev(), 0.6 * sp.stddev());
}

TEST(VirtualServers, PhysicalOwnerConsistent) {
  gr::Xoshiro256StarStar gen(10);
  const gd::VirtualServerRing vsr(8, 4, gen);
  for (int q = 0; q < 200; ++q) {
    const double key = gr::uniform01(gen);
    const auto vnode = vsr.ring().successor(key);
    EXPECT_EQ(vsr.physical_owner(key), vsr.physical_of(vnode));
  }
}

// --------------------------------------------------------------- TwoChoiceDht

TEST(TwoChoiceDht, RejectsBadD) {
  gr::Xoshiro256StarStar gen(11);
  const auto ring = gd::ChordRing::random(8, gen);
  EXPECT_THROW(gd::TwoChoiceDht(ring, 0), std::invalid_argument);
}

TEST(TwoChoiceDht, InsertConservation) {
  gr::Xoshiro256StarStar gen(12);
  const auto ring = gd::ChordRing::random(64, gen);
  gd::TwoChoiceDht dht(ring, 2);
  for (int i = 0; i < 256; ++i) (void)dht.insert(gen);
  EXPECT_EQ(dht.key_count(), 256u);
  const auto& loads = dht.loads();
  EXPECT_EQ(std::accumulate(loads.begin(), loads.end(), 0ull), 256ull);
  EXPECT_EQ(dht.max_load(),
            *std::max_element(loads.begin(), loads.end()));
}

TEST(TwoChoiceDht, TwoChoicesBalanceBetterThanOne) {
  gr::Xoshiro256StarStar gen(13);
  const std::size_t n = 512;
  double max1 = 0.0, max2 = 0.0;
  constexpr int kReps = 15;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto ring = gd::ChordRing::random(n, gen);
    gd::TwoChoiceDht one(ring, 1), two(ring, 2);
    for (std::size_t k = 0; k < n; ++k) {
      (void)one.insert(gen);
      (void)two.insert(gen);
    }
    max1 += one.max_load();
    max2 += two.max_load();
  }
  EXPECT_GT(max1 / kReps, max2 / kReps + 1.0);
}

TEST(TwoChoiceDht, HopAccountingWithFingers) {
  gr::Xoshiro256StarStar gen(14);
  auto ring = gd::ChordRing::random(128, gen);
  ring.build_fingers();
  gd::TwoChoiceDht dht(ring, 2);
  std::uint64_t hops = 0;
  for (int i = 0; i < 100; ++i) hops += dht.insert(gen).hops;
  EXPECT_GT(hops, 0u);  // probing twice per insert must route somewhere
}

TEST(TwoChoiceDht, MeanLookupProbesBetweenOneAndD) {
  gr::Xoshiro256StarStar gen(15);
  const auto ring = gd::ChordRing::random(256, gen);
  gd::TwoChoiceDht dht(ring, 3);
  for (int i = 0; i < 1000; ++i) (void)dht.insert(gen);
  const double probes = dht.mean_lookup_probes();
  EXPECT_GE(probes, 1.0);
  EXPECT_LE(probes, 3.0);
}
