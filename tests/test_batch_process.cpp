// Tests for the batched d-choice engine on one thread: exact equivalence
// against the scalar oracle under deterministic tie-breaks (shared
// location stream), batched primitive correctness (sort_ring_positions,
// ring_owner_batch and nearest_batch against brute force), and
// statistical agreement for the randomized tie-break. The same engine on a
// thread pool is tested in test_sharded_process.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "chi_squared_bins.hpp"
#include "core/core.hpp"
#include "geometry/ring_arithmetic.hpp"
#include "geometry/spatial_grid.hpp"
#include "rng/rng.hpp"
#include "spaces/spaces.hpp"
#include "stats/chi_squared.hpp"

namespace gc = geochoice::core;
namespace gg = geochoice::geometry;
namespace gr = geochoice::rng;
namespace gs = geochoice::spaces;
namespace gt = geochoice::testing;

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

const char* kernel_name(gg::Kernel kernel) {
  return kernel == gg::Kernel::kAvx512 ? "avx512" : "scalar";
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
  // scalar loop, so exact equality is not expected; the engines must
  // agree in distribution though.
  gr::DefaultEngine setup(12);
  const auto space = gs::UniformSpace(256);
  const auto o = opts(256, 2, gc::TieBreak::kRandom);
  const std::uint64_t trials = 300;
  double scalar_mean = 0.0;
  double batch_mean = 0.0;
  std::vector<std::uint64_t> scalar_loads, batch_loads;
  for (std::uint64_t t = 0; t < trials; ++t) {
    auto g1 = gr::make_trial_engine(777, t);
    auto g2 = gr::make_trial_engine(777, t);
    const auto scalar = gc::run_process(space, o, g1);
    const auto batch = gc::run_batch_process(space, o, g2);
    scalar_mean += scalar.max_load;
    batch_mean += batch.max_load;
    gt::add_load_counts(scalar_loads, scalar.loads);
    gt::add_load_counts(batch_loads, batch.loads);
  }
  scalar_mean /= static_cast<double>(trials);
  batch_mean /= static_cast<double>(trials);
  // Max loads here live in a tight band (~2..4); means beyond 0.25 apart
  // would signal a real distributional bug, not noise.
  EXPECT_NEAR(scalar_mean, batch_mean, 0.25);
  // The pooled per-bin loads of all trials (76,800 bins each) must pass a
  // two-sample chi-squared test at alpha = 0.001. A batched engine that
  // places 1 ball in 10 at its first candidate regardless of load fails
  // it.
  gt::same_length(scalar_loads, batch_loads);
  const auto chi =
      geochoice::stats::chi_squared_two_sample(scalar_loads, batch_loads);
  EXPECT_FALSE(chi.rejects()) << "chi2 = " << chi.statistic << " on "
                              << chi.dof << " dof";
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

namespace {

struct RingCase {
  std::vector<double> positions;
  std::vector<double> xs;
  const char* what;
};

// Every ring the ring_owner_batch kernels are checked on.
std::vector<RingCase> ring_kernel_cases() {
  std::vector<RingCase> cases;
  gr::DefaultEngine gen(19);
  for (const std::size_t n : {1u, 2u, 3u}) {
    auto pos = uniform_ring(n, gen);
    cases.push_back({pos, edge_queries(pos), "uniform, n <= 3"});
    pos = boundary_ring(n);
    cases.push_back({pos, edge_queries(pos), "boundaries, n <= 3"});
  }
  // 45 positions, so 45 buckets: bucket b < 10 holds b positions, the
  // rest none. Buckets 5 to 9 take the fallback past the four-position
  // count; bucket 7 repeats one position, bucket 9 starts on its edge.
  {
    const double n = 45.0;
    std::vector<double> pos;
    for (int b = 0; b < 10; ++b) {
      for (int i = 0; i < b; ++i) {
        const double u =
            b == 7 && i > 2 ? 0.5 : (static_cast<double>(i) + 0.5) / b;
        pos.push_back(b == 9 && i == 0 ? b / n : (b + u) / n);
      }
    }
    auto xs = edge_queries(pos);
    for (int i = 0; i < 300; ++i) xs.push_back(gr::uniform01(gen) * 10.0 / n);
    cases.push_back({pos, xs, "buckets of 0 to 9 positions"});
  }
  // A uniform ring: about 2% of its 8-query groups hold a bucket over four.
  {
    auto pos = uniform_ring(4096, gen);
    std::vector<double> xs(4099);
    for (auto& x : xs) x = gr::uniform01(gen);
    cases.push_back({pos, xs, "uniform, n = 4096"});
  }
  return cases;
}

// Every result of `kernel` must equal ring_owner and the O(n) reference by
// index, on every prefix of up to 17 queries (each length mod 8) and on the
// whole list.
void expect_ring_kernel_matches(gg::Kernel kernel) {
  for (const RingCase& c : ring_kernel_cases()) {
    std::vector<double> pos = c.positions;
    const std::vector<std::uint32_t> dir = gg::sort_ring_positions(pos);
    std::vector<std::size_t> lengths = {c.xs.size()};
    for (std::size_t len = 0; len <= std::min<std::size_t>(17, c.xs.size());
         ++len) {
      lengths.push_back(len);
    }
    for (const std::size_t len : lengths) {
      const std::span<const double> xs(c.xs.data(), len);
      std::vector<std::uint32_t> got(len);
      gg::ring_owner_batch(kernel, pos, dir, xs, got);
      for (std::size_t i = 0; i < len; ++i) {
        const auto want = static_cast<std::uint32_t>(gg::ring_owner(pos, xs[i]));
        ASSERT_EQ(got[i], want) << c.what << " n=" << pos.size()
                                << " len=" << len << " x=" << xs[i];
        ASSERT_EQ(want, brute_ring_owner(pos, xs[i]))
            << c.what << " n=" << pos.size() << " x=" << xs[i];
      }
    }
  }
}

}  // namespace

// The scalar kernel runs on every CPU; ring_owner_batch without a kernel
// runs whichever the CPU selects, and must equal it.
TEST(RingOwnerBatch, ScalarKernelMatchesRingOwner) {
  std::printf("ring_owner_batch runs the %s kernel on this CPU\n",
              kernel_name(gg::batch_kernel()));
  expect_ring_kernel_matches(gg::Kernel::kScalar);
  for (const RingCase& c : ring_kernel_cases()) {
    std::vector<double> pos = c.positions;
    const std::vector<std::uint32_t> dir = gg::sort_ring_positions(pos);
    std::vector<std::uint32_t> dispatched(c.xs.size());
    std::vector<std::uint32_t> scalar(c.xs.size());
    gg::ring_owner_batch(pos, dir, c.xs, dispatched);
    gg::ring_owner_batch(gg::Kernel::kScalar, pos, dir, c.xs, scalar);
    EXPECT_EQ(dispatched, scalar) << c.what;
  }
}

TEST(RingOwnerBatch, Avx512KernelMatchesRingOwner) {
  if (gg::batch_kernel() != gg::Kernel::kAvx512) {
    std::vector<double> pos = {0.5};
    const std::vector<std::uint32_t> dir = gg::sort_ring_positions(pos);
    const std::vector<double> xs = {0.25};
    std::vector<std::uint32_t> out(1);
    EXPECT_THROW(gg::ring_owner_batch(gg::Kernel::kAvx512, pos, dir, xs, out),
                 std::invalid_argument);
    GTEST_SKIP() << "this CPU lacks AVX-512 F/VL/DQ: only the scalar "
                    "kernel ran";
  }
  std::printf("checking the avx512 kernel\n");
  expect_ring_kernel_matches(gg::Kernel::kAvx512);
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

namespace {

struct NearestCase {
  std::vector<gg::Vec2> sites;
  std::uint32_t buckets_per_axis;  // 0: the grid's default
  std::vector<gg::Vec2> qs;
  const char* what;
};

// Every input the nearest_batch kernels are checked on.
std::vector<NearestCase> nearest_cases() {
  std::vector<NearestCase> cases;
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
    cases.push_back({uniform(n), 0, with_seams(uniform(257)), "uniform"});
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
  cases.push_back({dup, 0, dup_qs, "duplicates"});

  // k = 1 and k = 3: the 3x3 block wraps onto itself. k = 5 is the
  // smallest grid with a ring 2.
  for (const std::uint32_t k : {1u, 3u, 5u}) {
    cases.push_back({uniform(50), k, with_seams(uniform(257)), "explicit k"});
  }
  cases.push_back({uniform(12), 5, with_seams(uniform(257)), "k = 5, sparse"});

  // Rows of more than 8 entries, alone (k = 5) and mixed with shorter ones
  // (~7 per row at k = 9), which the vector kernel scans in scalar.
  cases.push_back({uniform(500), 5, with_seams(uniform(257)), "long rows"});
  cases.push_back({uniform(200), 9, with_seams(uniform(257)), "mixed rows"});

  // All sites in one corner: most queries need rings >= 2.
  std::vector<gg::Vec2> clustered(500);
  for (auto& s : clustered) {
    s = {0.05 * gr::uniform01(gen), 0.05 * gr::uniform01(gen)};
  }
  cases.push_back({clustered, 0, with_seams(uniform(257)), "clustered"});

  // A site just outside q's 3x3 block, exactly on q's exit bound, ties the
  // block's best and has the lower index, so it must win. At k = 5, q in
  // bucket (2, 2) at fractional position (3/4, 1/2) reaches a quarter
  // bucket past its bucket's edge before leaving the block at x = 0.8,
  // where bucket column 4 begins (0.8 * 5 rounds to 4). A sits as far
  // away inside the block; all three differences are exact. Also mirrored
  // in y, and with the order of the sites swapped.
  {
    const double edge = 0.8;
    const double mid = edge - 0.25;  // q's coordinate
    const double in = edge - 0.5;    // A's coordinate, in bucket 1
    cases.push_back({{{edge, 0.5}, {in, 0.5}, {in, 0.5}}, 5, {{mid, 0.5}},
                     "tie on the exit bound in x"});
    cases.push_back({{{0.5, edge}, {0.5, in}, {0.5, in}}, 5, {{0.5, mid}},
                     "tie on the exit bound in y"});
    cases.push_back({{{in, 0.5}, {in, 0.5}, {edge, 0.5}}, 5, {{mid, 0.5}},
                     "tie on the exit bound, in-block site first"});
  }

  // Four sites in four buckets of q's block, all 1/8 from q; the highest
  // indices sit in the rows and columns the block scan reaches first.
  cases.push_back({{{0.5, 0.625}, {0.625, 0.5}, {0.375, 0.5}, {0.5, 0.375}},
                   5,
                   {{0.5, 0.5}},
                   "ties across the block, highest index scanned first"});

  // Queries outside [0,1)^2 are wrapped first.
  {
    std::vector<gg::Vec2> outside = {
        {-0.25, 0.5}, {1.25, -3.75}, {2.0, -1.0}, {-1e-300, 0.3},
        {1.0, 1.0},   {1.0, 0.5},    {0.5, 1.0},  {-0.0, 0.7},
        {0.3, 7.5},   {-2.5, -0.5}};
    for (const gg::Vec2 q : uniform(64)) {
      outside.push_back({q.x + 3.0, q.y - 2.0});
      outside.push_back({q.x - 1.0, q.y});
    }
    cases.push_back({uniform(300), 0, outside, "queries outside [0,1)^2"});
  }

  // Exact d² ties in whole groups of eight: sites on the lattice
  // (i/8, j/8), listed from the highest (i, j), and queries at the centre
  // of four sites and between two. Every difference is a multiple of 1/16,
  // so the tied distances are equal to the bit; the lowest index must win.
  // Also on the k = 1 and k = 3 grids, where the block covers the whole
  // torus (at k = 1 every site appears in it nine times).
  {
    std::vector<gg::Vec2> lattice;
    for (int i = 7; i >= 0; --i) {
      for (int j = 7; j >= 0; --j) lattice.push_back({i / 8.0, j / 8.0});
    }
    std::vector<gg::Vec2> qs;
    for (int i = 0; i < 8; ++i) {
      for (int j = 0; j < 8; ++j) {
        qs.push_back({(i + 0.5) / 8.0, (j + 0.5) / 8.0});
        qs.push_back({(i + 0.5) / 8.0, j / 8.0});
      }
    }
    for (const std::uint32_t k : {0u, 1u, 3u}) {
      cases.push_back({lattice, k, qs, "lattice ties"});
    }
  }

  // One query outside [0,1)^2 in each group of eight: the group goes to
  // the scalar kernel, the groups around it stay vectorized.
  {
    auto qs = uniform(67);
    for (std::size_t i = 3; i < qs.size(); i += 8) qs[i].x += 1.0;
    cases.push_back({uniform(300), 0, qs, "one query outside per group"});
  }

  // One call with >= buckets/8 queries over a grid bigger than 256 KiB.
  cases.push_back({uniform(12000), 0, uniform(2048), "large call"});
  return cases;
}

// Every result of `kernel` must equal nearest() and the brute-force
// reference on the wrapped query by index, ties included (the lowest index
// wins).
void expect_kernel_matches(gg::Kernel kernel) {
  for (const NearestCase& c : nearest_cases()) {
    const gg::SpatialGrid grid(c.sites, c.buckets_per_axis);
    std::vector<std::uint32_t> got(c.qs.size());
    grid.nearest_batch(kernel, c.qs, got);
    for (std::size_t i = 0; i < c.qs.size(); ++i) {
      const gg::Vec2 q = gg::wrap01(c.qs[i]);
      const std::uint32_t want = gg::brute_force_nearest(c.sites, q);
      EXPECT_EQ(got[i], want) << c.what << " n=" << c.sites.size()
                              << " k=" << grid.buckets_per_axis() << " q=("
                              << c.qs[i].x << ", " << c.qs[i].y << ")";
      EXPECT_EQ(grid.nearest(q), want) << c.what << " i=" << i;
    }
  }
}

}  // namespace

// The scalar kernel runs on every CPU. nearest_batch itself runs whichever
// kernel the CPU selects; the other test covers the vector one.
TEST(NearestBatch, MatchesScalarNearest) {
  std::printf("nearest_batch runs the %s kernel on this CPU\n",
              kernel_name(gg::batch_kernel()));
  expect_kernel_matches(gg::Kernel::kScalar);
  for (const NearestCase& c : nearest_cases()) {
    const gg::SpatialGrid grid(c.sites, c.buckets_per_axis);
    std::vector<std::uint32_t> dispatched(c.qs.size());
    std::vector<std::uint32_t> scalar(c.qs.size());
    grid.nearest_batch(c.qs, dispatched);
    grid.nearest_batch(gg::Kernel::kScalar, c.qs, scalar);
    EXPECT_EQ(dispatched, scalar) << c.what;
  }
}

TEST(NearestBatch, Avx512KernelMatchesScalarNearest) {
  if (gg::batch_kernel() != gg::Kernel::kAvx512) {
    const gg::SpatialGrid grid(std::vector<gg::Vec2>{{0.5, 0.5}});
    const std::vector<gg::Vec2> qs = {{0.25, 0.25}};
    std::vector<std::uint32_t> out(1);
    EXPECT_THROW(
        grid.nearest_batch(gg::Kernel::kAvx512, qs, out),
        std::invalid_argument);
    GTEST_SKIP() << "this CPU lacks AVX-512 F/VL/DQ: only the scalar "
                    "kernel ran";
  }
  std::printf("checking the avx512 kernel\n");
  expect_kernel_matches(gg::Kernel::kAvx512);
}
