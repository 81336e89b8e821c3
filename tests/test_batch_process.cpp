// Tests for the batched d-choice engine: exact equivalence against the
// scalar oracle under deterministic tie-breaks (shared location stream),
// batched primitive correctness (sort_ring_positions, ring_owner_batch and
// nearest_batch against brute force),
// statistical agreement for the randomized tie-break, and thread-count
// invariance of the batched Monte-Carlo entry point.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/core.hpp"
#include "geometry/ring_arithmetic.hpp"
#include "geometry/spatial_grid.hpp"
#include "rng/rng.hpp"
#include "spaces/spaces.hpp"

namespace gc = geochoice::core;
namespace gg = geochoice::geometry;
namespace gr = geochoice::rng;
namespace gs = geochoice::spaces;

namespace {

gc::ProcessOptions opts(std::uint64_t m, int d, gc::TieBreak tie) {
  gc::ProcessOptions o;
  o.num_balls = m;
  o.num_choices = d;
  o.tie = tie;
  return o;
}

/// Scalar and batched runs from identical engine states must produce
/// bit-identical loads for deterministic tie-breaks.
template <typename Space>
void expect_exact_equivalence(const Space& space, const gc::ProcessOptions& o,
                              std::uint64_t seed, std::size_t block_size) {
  gr::DefaultEngine scalar_gen(seed);
  gr::DefaultEngine batch_gen(seed);
  const auto scalar = gc::run_process(space, o, scalar_gen);
  gc::BatchOptions b;
  b.block_size = block_size;
  const auto batched = gc::run_batch_process(space, o, batch_gen, b);
  EXPECT_EQ(scalar.loads, batched.loads);
  EXPECT_EQ(scalar.max_load, batched.max_load);
  EXPECT_EQ(scalar.balls, batched.balls);
}

}  // namespace

TEST(BatchProcess, RejectsBadArguments) {
  gr::DefaultEngine gen(1);
  const gs::UniformSpace space(8);
  EXPECT_THROW((void)gc::run_batch_process(
                   space, opts(10, 0, gc::TieBreak::kFirstChoice), gen),
               std::invalid_argument);
  gc::ProcessOptions o = opts(10, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  EXPECT_THROW((void)gc::run_batch_process(space, o, gen),
               std::invalid_argument);
}

TEST(BatchProcess, ExactEquivalenceRing) {
  gr::DefaultEngine setup(7);
  const auto space = gs::RingSpace::random(512, setup);
  for (const auto tie : {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex,
                         gc::TieBreak::kSmallerRegion,
                         gc::TieBreak::kLargerRegion}) {
    for (const int d : {1, 2, 4}) {
      expect_exact_equivalence(space, opts(2048, d, tie), 99, 256);
    }
  }
}

TEST(BatchProcess, ExactEquivalenceRingPartitioned) {
  gr::DefaultEngine setup(8);
  const auto space = gs::RingSpace::random(256, setup);
  gc::ProcessOptions o = opts(1024, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  expect_exact_equivalence(space, o, 55, 128);
}

TEST(BatchProcess, ExactEquivalenceTorus) {
  gr::DefaultEngine setup(9);
  const auto space = gs::TorusSpace::random(256, setup);
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    expect_exact_equivalence(space, opts(1024, 2, tie), 1234, 200);
  }
}

TEST(BatchProcess, ExactEquivalenceUniform) {
  const gs::UniformSpace space(333);
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    expect_exact_equivalence(space, opts(999, 3, tie), 4321, 100);
  }
}

TEST(BatchProcess, BlockSizeDoesNotChangeDeterministicResults) {
  gr::DefaultEngine setup(10);
  const auto space = gs::RingSpace::random(128, setup);
  const auto o = opts(1000, 2, gc::TieBreak::kFirstChoice);
  std::vector<std::uint32_t> reference;
  for (const std::size_t block : {1u, 7u, 64u, 1000u, 4096u}) {
    gr::DefaultEngine gen(42);
    gc::BatchOptions b;
    b.block_size = block;
    const auto r = gc::run_batch_process(space, o, gen, b);
    if (reference.empty()) {
      reference = r.loads;
    } else {
      EXPECT_EQ(reference, r.loads) << "block_size=" << block;
    }
  }
}

TEST(BatchProcess, ConservesBallsAndRecordsHeights) {
  gr::DefaultEngine setup(11);
  const auto space = gs::RingSpace::random(64, setup);
  gc::ProcessOptions o = opts(500, 2, gc::TieBreak::kRandom);
  o.record_heights = true;
  gr::DefaultEngine gen(3);
  const auto r = gc::run_batch_process(space, o, gen);
  const auto total =
      std::accumulate(r.loads.begin(), r.loads.end(), std::uint64_t{0});
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(r.heights.total(), 500u);
  EXPECT_EQ(r.heights.max_value(), r.max_load);
}

TEST(BatchProcess, RandomTieBreakStatisticallyMatchesScalar) {
  // kRandom draws tie randomness in a different stream order than the
  // scalar loop, so exact equality is not expected; the max-load
  // distribution over trials must agree closely though.
  gr::DefaultEngine setup(12);
  const auto space = gs::UniformSpace(256);
  const auto o = opts(256, 2, gc::TieBreak::kRandom);
  const std::uint64_t trials = 300;
  double scalar_mean = 0.0;
  double batch_mean = 0.0;
  for (std::uint64_t t = 0; t < trials; ++t) {
    auto g1 = gr::make_trial_engine(777, t);
    auto g2 = gr::make_trial_engine(777, t);
    scalar_mean += gc::run_process(space, o, g1).max_load;
    batch_mean += gc::run_batch_process(space, o, g2).max_load;
  }
  scalar_mean /= static_cast<double>(trials);
  batch_mean /= static_cast<double>(trials);
  // Max loads here live in a tight band (~2..4); means beyond 0.25 apart
  // would signal a real distributional bug, not noise.
  EXPECT_NEAR(scalar_mean, batch_mean, 0.25);
}

TEST(BatchProcess, RunBatchTrialsThreadCountInvariant) {
  gr::DefaultEngine setup(13);
  const auto space = gs::RingSpace::random(128, setup);
  const auto o = opts(512, 2, gc::TieBreak::kRandom);
  const auto one = gc::run_batch_trials(space, o, 24, 2024, 1);
  const auto four = gc::run_batch_trials(space, o, 24, 2024, 4);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t t = 0; t < one.size(); ++t) {
    EXPECT_EQ(one[t].loads, four[t].loads) << "trial " << t;
    EXPECT_EQ(one[t].max_load, four[t].max_load) << "trial " << t;
  }
}

TEST(BatchProcess, RunBatchTrialsMatchesScalarTrialsDeterministicTie) {
  // With a deterministic tie-break the batched sweep must reproduce the
  // scalar per-trial results exactly (same trial-engine derivation).
  gr::DefaultEngine setup(14);
  const auto space = gs::RingSpace::random(64, setup);
  const auto o = opts(256, 2, gc::TieBreak::kLowestIndex);
  const auto batched = gc::run_batch_trials(space, o, 16, 31337, 0);
  for (std::size_t t = 0; t < batched.size(); ++t) {
    auto gen = gr::make_trial_engine(31337, t);
    const auto scalar = gc::run_process(space, o, gen);
    EXPECT_EQ(scalar.loads, batched[t].loads) << "trial " << t;
  }
}

namespace {

/// O(n) reference for the ring owner: the greatest position <= x, or the
/// last position when x precedes all of them.
std::uint32_t brute_ring_owner(const std::vector<double>& sorted, double x) {
  auto best = static_cast<std::uint32_t>(sorted.size() - 1);
  for (std::uint32_t i = 0; i < sorted.size(); ++i) {
    if (sorted[i] <= x) best = i;
  }
  return best;
}

std::vector<double> uniform_ring(std::size_t n, gr::DefaultEngine& gen) {
  std::vector<double> pos(n);
  for (auto& p : pos) p = gr::uniform01(gen);
  return pos;
}

/// n positions on the directory's bucket boundaries s/n, each nudged one
/// ULP down, left exact, or nudged one ULP up.
std::vector<double> boundary_ring(std::size_t n) {
  std::vector<double> pos(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double b = static_cast<double>(s) / static_cast<double>(n);
    pos[s] = s == 0 || s % 3 == 1 ? b
             : s % 3 == 0         ? std::nextafter(b, 0.0)
                                  : std::nextafter(b, 1.0);
  }
  return pos;
}

/// Queries at the edges of `pos`'s ring: 0, every position and its ULP
/// neighbours, every bucket boundary s/n and its ULP neighbours, the last
/// double below 1, and 1.0 itself, which rng::fill_partitioned_ring's
/// (j + u) / d can round up to.
std::vector<double> edge_queries(const std::vector<double>& pos) {
  const double n = static_cast<double>(pos.size());
  std::vector<double> xs = {0.0, std::nextafter(1.0, 0.0), 1.0};
  for (const double p : pos) {
    xs.push_back(p);
    if (p > 0.0) xs.push_back(std::nextafter(p, 0.0));
    xs.push_back(std::nextafter(p, 1.0));
  }
  for (std::size_t s = 1; s < pos.size(); ++s) {
    const double b = static_cast<double>(s) / n;
    xs.push_back(b);
    xs.push_back(std::nextafter(b, 0.0));
    xs.push_back(std::nextafter(b, 1.0));
  }
  return xs;
}

/// Resolve `xs` over the ring of `positions` through the directory of
/// sort_ring_positions and check every owner, by index, against
/// RingSpace::owner, RingSpace::owner_batch and the O(n) reference (on a
/// stride once all queries would cost more than ~2^24 steps).
void expect_ring_owners(std::vector<double> positions,
                        const std::vector<double>& xs, const char* what) {
  const gs::RingSpace space(positions);
  const std::vector<std::uint32_t> dir = gg::sort_ring_positions(positions);
  std::vector<std::uint32_t> got(xs.size());
  gg::ring_owner_batch(positions, dir, xs, got);
  std::vector<gs::BinIndex> via_space(xs.size());
  space.owner_batch(xs, via_space);
  const std::size_t n = positions.size();
  const std::size_t stride = std::max<std::size_t>(1, n * xs.size() >> 24);
  for (std::size_t i = 0; i < xs.size(); ++i) {
    ASSERT_EQ(got[i], space.owner(xs[i]))
        << what << " n=" << n << " x=" << xs[i];
    ASSERT_EQ(via_space[i], got[i]) << what << " n=" << n << " x=" << xs[i];
    if (i % stride == 0) {
      ASSERT_EQ(got[i], brute_ring_owner(positions, xs[i]))
          << what << " n=" << n << " x=" << xs[i];
    }
  }
}

}  // namespace

TEST(RingOwnerBatch, MatchesScalarOwner) {
  gr::DefaultEngine gen(15);
  for (const std::size_t n : {1u, 2u, 3u, 5u, 17u, 64u, 257u, 1000u,
                              65536u}) {
    const auto pos = uniform_ring(n, gen);
    auto xs = edge_queries(pos);
    for (int i = 0; i < 513; ++i) xs.push_back(gr::uniform01(gen));
    expect_ring_owners(pos, xs, "uniform");
    const auto edges = boundary_ring(n);
    expect_ring_owners(edges, edge_queries(edges), "boundaries");
  }
}

TEST(RingOwnerBatch, DuplicatesAndClusteredBuckets) {
  // Duplicates resolve to their last copy, as upper_bound does; five
  // copies fill one bucket past the branch-free four.
  for (const std::vector<double>& pos :
       {std::vector<double>{0.25, 0.25, 0.75},
        std::vector<double>{0.5, 0.5, 0.5, 0.5, 0.5},
        std::vector<double>{0.0, 0.0, 0.5, 0.5}}) {
    expect_ring_owners(pos, edge_queries(pos), "duplicates");
  }
  // Buckets of 4, 5, 16, 17 and 40 positions among uniform filler: the
  // branch-free count at its limit, and upper_bound past it.
  gr::DefaultEngine gen(17);
  const std::size_t n = 257;
  std::vector<double> pos;
  std::size_t bucket = 10;
  for (const int size : {4, 5, 16, 17, 40}) {
    for (int i = 0; i < size; ++i) {
      const double u = 0.1 + 0.8 * gr::uniform01(gen);
      pos.push_back((static_cast<double>(bucket) + u) /
                    static_cast<double>(n));
    }
    bucket += 45;
  }
  while (pos.size() < n) pos.push_back(gr::uniform01(gen));
  expect_ring_owners(pos, edge_queries(pos), "clusters");
  // Every position in one bucket: the whole ring is one upper_bound.
  std::vector<double> one_bucket(1000);
  for (auto& p : one_bucket) p = 0.3 + 1e-4 * gr::uniform01(gen);
  expect_ring_owners(one_bucket, edge_queries(one_bucket), "one bucket");
}

TEST(SortRingPositions, MatchesStdSortAndIndexesBuckets) {
  gr::DefaultEngine gen(18);
  std::vector<std::vector<double>> inputs = {
      {0.25, 0.25, 0.75}, {0.5, 0.5, 0.5, 0.5, 0.5}, {0.0}, {0.999, 0.0}};
  for (const std::size_t n : {1u, 2u, 3u, 5u, 17u, 64u, 257u, 1000u,
                              65536u}) {
    inputs.push_back(uniform_ring(n, gen));
    inputs.push_back(boundary_ring(n));
  }
  std::vector<double> clustered(1000);
  for (auto& p : clustered) p = 0.7 + 1e-4 * gr::uniform01(gen);
  inputs.push_back(clustered);
  for (const auto& input : inputs) {
    auto sorted = input;
    const std::vector<std::uint32_t> dir = gg::sort_ring_positions(sorted);
    auto want = input;
    std::sort(want.begin(), want.end());
    const std::size_t n = input.size();
    ASSERT_EQ(sorted.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(std::bit_cast<std::uint64_t>(sorted[i]),
                std::bit_cast<std::uint64_t>(want[i]))
          << "n=" << n << " i=" << i;
    }
    // dir[b] is the first index in a bucket >= b, b = min(n-1, floor(x n)).
    ASSERT_EQ(dir.size(), n + 1);
    EXPECT_EQ(dir.front(), 0u);
    EXPECT_EQ(dir.back(), n);
    for (std::size_t i = 0; i < n; ++i) {
      const auto b = std::min<std::size_t>(
          n - 1, static_cast<std::size_t>(sorted[i] * static_cast<double>(n)));
      ASSERT_LE(dir[b], i) << "n=" << n << " i=" << i;
      ASSERT_LT(i, dir[b + 1]) << "n=" << n << " i=" << i;
    }
  }
}

TEST(SortRingPositions, RejectsEmptyOutOfRangeAndNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::vector<double> bad :
       {std::vector<double>{}, std::vector<double>{0.5, 1.0},
        std::vector<double>{-0.1, 0.5}, std::vector<double>{0.2, nan},
        std::vector<double>{std::nextafter(0.0, -1.0)},
        std::vector<double>{0.3, std::numeric_limits<double>::infinity()}}) {
    EXPECT_THROW(gg::sort_ring_positions(bad), std::invalid_argument);
  }
}

TEST(NearestBatch, MatchesScalarNearest) {
  // Every batch result must equal nearest() and the brute-force reference
  // by index, ties included (the lowest index wins).
  auto expect_matches = [](const std::vector<gg::Vec2>& sites,
                           std::uint32_t buckets_per_axis,
                           const std::vector<gg::Vec2>& qs, const char* what) {
    const gg::SpatialGrid grid(sites, buckets_per_axis);
    std::vector<std::uint32_t> got(qs.size());
    grid.nearest_batch(qs, got);
    for (std::size_t i = 0; i < qs.size(); ++i) {
      const std::uint32_t want = gg::brute_force_nearest(sites, qs[i]);
      EXPECT_EQ(got[i], want) << what << " n=" << sites.size()
                              << " k=" << grid.buckets_per_axis()
                              << " q=(" << qs[i].x << ", " << qs[i].y << ")";
      EXPECT_EQ(grid.nearest(qs[i]), want) << what << " i=" << i;
    }
  };
  gr::DefaultEngine gen(16);
  auto uniform = [&](std::size_t count) {
    std::vector<gg::Vec2> pts(count);
    for (auto& p : pts) p = {gr::uniform01(gen), gr::uniform01(gen)};
    return pts;
  };
  // Queries on the seams land in the ghost columns and the wrapped rows.
  const double below_one = std::nextafter(1.0, 0.0);
  auto with_seams = [&](std::vector<gg::Vec2> qs) {
    for (const double t : {0.0, 0.25, 0.5, below_one}) {
      qs.push_back({0.0, t});
      qs.push_back({below_one, t});
      qs.push_back({t, 0.0});
      qs.push_back({t, below_one});
    }
    return qs;
  };

  for (const std::size_t n : {1u, 5u, 64u, 500u}) {
    expect_matches(uniform(n), 0, with_seams(uniform(257)), "uniform");
  }

  // Exact duplicates, some on the seams: every distance ties its copy.
  auto dup = uniform(200);
  dup.push_back({0.0, 0.5});
  dup.push_back({below_one, 0.25});
  for (std::size_t i = 0; i < 100; ++i) {
    const gg::Vec2 copy = dup[i * 2];
    dup.push_back(copy);
  }
  dup.push_back({0.0, 0.5});
  dup.push_back({below_one, 0.25});
  auto dup_qs = with_seams(uniform(257));
  dup_qs.insert(dup_qs.end(), dup.begin(), dup.end());
  expect_matches(dup, 0, dup_qs, "duplicates");

  // k = 1 and k = 3: the 3x3 block wraps onto itself.
  for (const std::uint32_t k : {1u, 3u}) {
    expect_matches(uniform(50), k, with_seams(uniform(257)), "explicit k");
  }

  // All sites in one corner: most queries need rings >= 2.
  std::vector<gg::Vec2> clustered(500);
  for (auto& s : clustered) {
    s = {0.05 * gr::uniform01(gen), 0.05 * gr::uniform01(gen)};
  }
  expect_matches(clustered, 0, with_seams(uniform(257)), "clustered");

  // One call with >= buckets/8 queries over a grid bigger than 256 KiB.
  expect_matches(uniform(12000), 0, uniform(2048), "large call");
}
