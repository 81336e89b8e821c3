// Tests for the sharded d-choice engine: exact equivalence against the
// scalar oracle under deterministic tie-breaks (shared location stream),
// thread-count / block-size invariance (deterministic AND random
// tie-breaks — the sharded engine's tie substream is independent of both),
// cross-shard probe handling on shard-starved rings, and the Monte-Carlo
// entry point. The engine cuts the space into one shard per worker, so the
// thread count is also the shard count.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <vector>

#include "chi_squared_bins.hpp"
#include "core/core.hpp"
#include "rng/rng.hpp"
#include "spaces/spaces.hpp"
#include "stats/chi_squared.hpp"

namespace gc = geochoice::core;
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

gc::ShardedOptions sharded(std::size_t threads, std::size_t block = 256) {
  gc::ShardedOptions s;
  s.threads = threads;
  s.block_balls = block;
  return s;
}

/// Scalar and sharded runs from identical engine states must produce
/// bit-identical loads for deterministic tie-breaks, at any thread count.
template <typename Space>
void expect_exact_equivalence(const Space& space, const gc::ProcessOptions& o,
                              std::uint64_t seed,
                              const gc::ShardedOptions& s) {
  gr::DefaultEngine scalar_gen(seed);
  gr::DefaultEngine sharded_gen(seed);
  const auto scalar = gc::run_process(space, o, scalar_gen);
  const auto shrd = gc::run_sharded_process(space, o, sharded_gen, s);
  EXPECT_EQ(scalar.loads, shrd.loads)
      << "threads=" << s.threads << " block=" << s.block_balls;
  EXPECT_EQ(scalar.max_load, shrd.max_load);
  EXPECT_EQ(scalar.balls, shrd.balls);
}

}  // namespace

TEST(ShardedProcess, RejectsBadArguments) {
  gr::DefaultEngine gen(1);
  const gs::UniformSpace space(8);
  EXPECT_THROW((void)gc::run_sharded_process(
                   space, opts(10, 0, gc::TieBreak::kFirstChoice), gen),
               std::invalid_argument);
  gc::ProcessOptions o = opts(10, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  EXPECT_THROW((void)gc::run_sharded_process(space, o, gen),
               std::invalid_argument);
}

TEST(ShardedProcess, ExactEquivalenceRingAllDeterministicTies) {
  gr::DefaultEngine setup(7);
  const auto space = gs::RingSpace::random(512, setup);
  for (const auto tie : {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex,
                         gc::TieBreak::kSmallerRegion,
                         gc::TieBreak::kLargerRegion}) {
    for (const int d : {1, 2, 4}) {
      expect_exact_equivalence(space, opts(2048, d, tie), 99, sharded(2));
    }
  }
}

TEST(ShardedProcess, ExactEquivalenceAcrossShardAndThreadGridRing) {
  gr::DefaultEngine setup(8);
  const auto space = gs::RingSpace::random(256, setup);
  const auto o = opts(1024, 2, gc::TieBreak::kFirstChoice);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t block : {100u, 256u}) {
      expect_exact_equivalence(space, o, 1234, sharded(threads, block));
    }
  }
}

TEST(ShardedProcess, ExactEquivalenceAcrossShardAndThreadGridTorus) {
  gr::DefaultEngine setup(9);
  const auto space = gs::TorusSpace::random(128, setup);
  const auto o = opts(512, 2, gc::TieBreak::kLowestIndex);
  for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t block : {100u, 256u}) {
      expect_exact_equivalence(space, o, 4321, sharded(threads, block));
    }
  }
}

TEST(ShardedProcess, ExactEquivalenceRingPartitioned) {
  gr::DefaultEngine setup(10);
  const auto space = gs::RingSpace::random(256, setup);
  gc::ProcessOptions o = opts(1024, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  expect_exact_equivalence(space, o, 55, sharded(2, 128));
}

TEST(ShardedProcess, ExactEquivalenceUniformIdentityPath) {
  const gs::UniformSpace space(333);
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    expect_exact_equivalence(space, opts(999, 3, tie), 77, sharded(2, 100));
  }
}

/// Shard-starved ring: with more shards (workers) than servers, most
/// probes land in a shard holding no position at or below them, so their
/// owner sits in an earlier shard. The resolve must still reproduce the
/// scalar owner exactly — including the wrap to the last server for probes
/// before the first one.
TEST(ShardedProcess, CrossShardProbesStillExact) {
  gr::DefaultEngine setup(11);
  const auto space = gs::RingSpace::random(3, setup);
  for (const std::size_t threads : {4u, 8u}) {
    expect_exact_equivalence(space,
                             opts(512, 2, gc::TieBreak::kFirstChoice), 66,
                             sharded(threads, 64));
  }
}

/// The engine's full-invariance promise: identical loads — hence identical
/// max-load histograms — across thread counts and block sizes, for the
/// random tie-break too (its tie substream is derived once, before
/// sampling).
TEST(ShardedProcess, RandomTieInvariantAcrossShardsThreadsAndBlocks) {
  gr::DefaultEngine setup(12);
  const auto ring = gs::RingSpace::random(128, setup);
  const auto torus = gs::TorusSpace::random(64, setup);
  const auto o = opts(512, 2, gc::TieBreak::kRandom);

  auto run_ring = [&](const gc::ShardedOptions& s) {
    gr::DefaultEngine gen(2024);
    return gc::run_sharded_process(ring, o, gen, s);
  };
  auto run_torus = [&](const gc::ShardedOptions& s) {
    gr::DefaultEngine gen(2025);
    return gc::run_sharded_process(torus, o, gen, s);
  };

  const auto ring_ref = run_ring(sharded(1, 64));
  const auto torus_ref = run_torus(sharded(1, 64));
  for (const std::size_t threads : {1u, 2u, 3u, 8u}) {
    for (const std::size_t block : {64u, 200u, 512u}) {
      const auto r = run_ring(sharded(threads, block));
      EXPECT_EQ(ring_ref.loads, r.loads)
          << "ring threads=" << threads << " block=" << block;
      const auto t = run_torus(sharded(threads, block));
      EXPECT_EQ(torus_ref.loads, t.loads)
          << "torus threads=" << threads << " block=" << block;
    }
  }
}

/// kRandom draws its ties from the sharded engine's own substream, so it
/// matches the scalar engine in distribution only: the pooled per-bin
/// loads of 300 trials (76,800 bins each) must pass a two-sample
/// chi-squared test at alpha = 0.001.
TEST(ShardedProcess, RandomTieLoadsMatchScalarInDistribution) {
  const gs::UniformSpace space(256);
  const auto o = opts(256, 2, gc::TieBreak::kRandom);
  std::vector<std::uint64_t> scalar_loads, sharded_loads;
  for (std::uint64_t t = 0; t < 300; ++t) {
    auto g1 = gr::make_trial_engine(778, t);
    auto g2 = gr::make_trial_engine(778, t);
    gt::add_load_counts(scalar_loads, gc::run_process(space, o, g1).loads);
    gt::add_load_counts(
        sharded_loads,
        gc::run_sharded_process(space, o, g2, sharded(2, 64)).loads);
  }
  gt::same_length(scalar_loads, sharded_loads);
  const auto chi =
      geochoice::stats::chi_squared_two_sample(scalar_loads, sharded_loads);
  EXPECT_FALSE(chi.rejects()) << "chi2 = " << chi.statistic << " on "
                              << chi.dof << " dof";
}

TEST(ShardedProcess, ConservesBallsAndRecordsHeights) {
  gr::DefaultEngine setup(13);
  const auto space = gs::RingSpace::random(64, setup);
  gc::ProcessOptions o = opts(500, 2, gc::TieBreak::kRandom);
  o.record_heights = true;
  gr::DefaultEngine gen(3);
  const auto r = gc::run_sharded_process(space, o, gen, sharded(2, 128));
  const auto total =
      std::accumulate(r.loads.begin(), r.loads.end(), std::uint64_t{0});
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(r.heights.total(), 500u);
  EXPECT_EQ(r.heights.max_value(), r.max_load);
}

TEST(ShardedProcess, ZeroBallsAndSingleBin) {
  gr::DefaultEngine gen(14);
  const auto one = gs::RingSpace::equally_spaced(1);
  const auto empty =
      gc::run_sharded_process(one, opts(0, 2, gc::TieBreak::kFirstChoice),
                              gen, sharded(2));
  EXPECT_EQ(empty.max_load, 0u);
  // Zero balls with an external pool: the engine must not leave orphaned
  // resolve tasks behind when it returns (they would reference dead stack
  // frames; regression test for the unwaited-prologue bug).
  {
    geochoice::parallel::ThreadPool pool(2);
    const auto none = gc::run_sharded_process(
        one, opts(0, 2, gc::TieBreak::kFirstChoice), gen, sharded(2), &pool);
    EXPECT_EQ(none.max_load, 0u);
    pool.wait();  // nothing should be pending
  }
  const auto all = gc::run_sharded_process(
      one, opts(100, 2, gc::TieBreak::kFirstChoice), gen, sharded(2, 32));
  EXPECT_EQ(all.max_load, 100u);
  EXPECT_EQ(all.loads[0], 100u);
}

TEST(ShardedProcess, ExternalPoolAndScratchReuse) {
  gr::DefaultEngine setup(15);
  const auto space = gs::TorusSpace::random(64, setup);
  const auto o = opts(256, 2, gc::TieBreak::kFirstChoice);
  geochoice::parallel::ThreadPool pool(2);
  gc::ShardedScratch<geochoice::geometry::Vec2> scratch;
  const auto s = sharded(2, 100);
  for (int rep = 0; rep < 3; ++rep) {
    gr::DefaultEngine scalar_gen(500 + rep);
    gr::DefaultEngine sharded_gen(500 + rep);
    const auto scalar = gc::run_process(space, o, scalar_gen);
    const auto shrd =
        gc::run_sharded_process(space, o, sharded_gen, s, &pool, &scratch);
    EXPECT_EQ(scalar.loads, shrd.loads) << "rep " << rep;
  }
}

TEST(ShardedProcess, TrialsMatchSingleRuns) {
  gr::DefaultEngine setup(16);
  const auto space = gs::RingSpace::random(64, setup);
  const auto o = opts(256, 2, gc::TieBreak::kLowestIndex);
  const auto trials =
      gc::run_sharded_trials(space, o, 8, 31337, sharded(2, 64));
  for (std::size_t t = 0; t < trials.size(); ++t) {
    auto gen = gr::make_trial_engine(31337, t);
    const auto scalar = gc::run_process(space, o, gen);
    EXPECT_EQ(scalar.loads, trials[t].loads) << "trial " << t;
  }
}

/// Routing at boundary-ULP doubles: for grids like k = 49, the double
/// nearest s/k can land on the far side of shard_of's floor(x*k) — e.g.
/// shard_of(1.0/49, 49) == 0 while 1.0/49 >= fl(1/49). Server positions
/// pinned to such grids, and to each worker boundary s/threads with its
/// one-ULP neighbours, must not change any owner: whichever worker's shard
/// a probe is routed to, it resolves to the scalar oracle's owner.
TEST(ShardedProcess, RoutingSlicesAgreeWithShardOfAtBoundaryULPs) {
  for (const std::uint32_t k : {49u, 100u, 7u}) {
    for (const std::size_t threads : {2u, 4u, 5u, 7u}) {
      // Positions pinned to the exact grid doubles, the worker boundaries
      // and their neighbours, plus fillers.
      std::vector<double> pos;
      for (std::uint32_t s = 0; s < k; ++s) {
        pos.push_back(static_cast<double>(s) / static_cast<double>(k));
      }
      for (std::size_t w = 1; w < threads; ++w) {
        const double b =
            static_cast<double>(w) / static_cast<double>(threads);
        pos.push_back(std::nextafter(b, 0.0));
        pos.push_back(b);
        pos.push_back(std::nextafter(b, 1.0));
      }
      pos.push_back(0.0051);
      pos.push_back(0.9973);
      const gs::RingSpace ring(pos);
      expect_exact_equivalence(ring,
                               opts(4096, 2, gc::TieBreak::kFirstChoice),
                               1234, sharded(threads, 512));
    }
  }
}

TEST(ShardedProcess, ShardOfPartitionsAreContiguousAndTotal) {
  // Every location maps to exactly one shard, shard boundaries are
  // monotone, and the edge location 1.0-ulp maps to the last shard.
  for (const std::uint32_t k : {1u, 4u, 64u}) {
    EXPECT_EQ(gs::RingSpace::shard_of(0.0, k), 0u);
    EXPECT_EQ(gs::RingSpace::shard_of(0.999999999999, k), k - 1);
    for (std::uint32_t s = 0; s < k; ++s) {
      const double lo = static_cast<double>(s) / k;
      EXPECT_EQ(gs::RingSpace::shard_of(lo, k), s);
    }
    EXPECT_EQ(gs::TorusSpace::shard_of({0.5, 0.0}, k), 0u);
    EXPECT_EQ(gs::TorusSpace::shard_of({0.5, 0.999999999999}, k), k - 1);
  }
  const gs::UniformSpace u(100);
  EXPECT_EQ(u.shard_of(0, 4), 0u);
  EXPECT_EQ(u.shard_of(99, 4), 3u);
  std::uint32_t prev = 0;
  for (gs::BinIndex b = 0; b < 100; ++b) {
    const std::uint32_t s = u.shard_of(b, 4);
    EXPECT_GE(s, prev);
    EXPECT_LT(s, 4u);
    prev = s;
  }
}
