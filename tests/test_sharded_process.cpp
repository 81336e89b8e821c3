// Tests for the batched d-choice engine on a thread pool (Engine::kSharded
// in sim::run): exact equivalence against the scalar oracle under
// deterministic tie-breaks (shared location stream) at every pool size,
// block-size and pool-size invariance of the random tie-break, rings whose
// owners sit far from their probes, and reuse of an external pool and of
// scratch buffers. Each pool worker resolves one contiguous slice of every
// block's probes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <vector>

#include "chi_squared_bins.hpp"
#include "core/core.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/rng.hpp"
#include "spaces/spaces.hpp"
#include "stats/chi_squared.hpp"

namespace gc = geochoice::core;
namespace gp = geochoice::parallel;
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

/// Scalar and pooled batched runs from identical engine states must produce
/// bit-identical loads for deterministic tie-breaks, at any pool size.
template <typename Space>
void expect_exact_equivalence(const Space& space, const gc::ProcessOptions& o,
                              std::uint64_t seed, std::size_t workers,
                              std::size_t block = 256) {
  gp::ThreadPool pool(workers);
  gr::DefaultEngine scalar_gen(seed);
  gr::DefaultEngine pooled_gen(seed);
  const auto scalar = gc::run_process(space, o, scalar_gen);
  const auto pooled =
      gc::run_batch_process(space, o, pooled_gen, {.block_size = block}, &pool);
  EXPECT_EQ(scalar.loads, pooled.loads)
      << "workers=" << workers << " block=" << block;
  EXPECT_EQ(scalar.max_load, pooled.max_load);
  EXPECT_EQ(scalar.balls, pooled.balls);
}

}  // namespace

TEST(ShardedProcess, RejectsBadArguments) {
  gr::DefaultEngine gen(1);
  const auto space = gs::TorusSpace::random(8, gen);
  gp::ThreadPool pool(2);
  EXPECT_THROW(
      (void)gc::run_batch_process(
          space, opts(10, 0, gc::TieBreak::kFirstChoice), gen, {}, &pool),
      std::invalid_argument);
  gc::ProcessOptions o = opts(10, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  EXPECT_THROW((void)gc::run_batch_process(space, o, gen, {}, &pool),
               std::invalid_argument);
}

TEST(ShardedProcess, ExactEquivalenceRingAllDeterministicTies) {
  gr::DefaultEngine setup(7);
  const auto space = gs::RingSpace::random(512, setup);
  for (const auto tie : {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex,
                         gc::TieBreak::kSmallerRegion,
                         gc::TieBreak::kLargerRegion}) {
    for (const int d : {1, 2, 4}) {
      expect_exact_equivalence(space, opts(2048, d, tie), 99, 2);
    }
  }
}

TEST(ShardedProcess, ExactEquivalenceAcrossShardAndThreadGridRing) {
  gr::DefaultEngine setup(8);
  const auto space = gs::RingSpace::random(256, setup);
  const auto o = opts(1024, 2, gc::TieBreak::kFirstChoice);
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t block : {100u, 256u}) {
      expect_exact_equivalence(space, o, 1234, workers, block);
    }
  }
}

TEST(ShardedProcess, ExactEquivalenceAcrossShardAndThreadGridTorus) {
  gr::DefaultEngine setup(9);
  const auto space = gs::TorusSpace::random(128, setup);
  const auto o = opts(512, 2, gc::TieBreak::kLowestIndex);
  for (const std::size_t workers : {1u, 2u, 3u, 4u, 8u}) {
    for (const std::size_t block : {100u, 256u}) {
      expect_exact_equivalence(space, o, 4321, workers, block);
    }
  }
}

TEST(ShardedProcess, ExactEquivalenceRingPartitioned) {
  gr::DefaultEngine setup(10);
  const auto space = gs::RingSpace::random(256, setup);
  gc::ProcessOptions o = opts(1024, 2, gc::TieBreak::kFirstChoice);
  o.scheme = gc::ChoiceScheme::kPartitioned;
  expect_exact_equivalence(space, o, 55, 2, 128);
}

TEST(ShardedProcess, ExactEquivalenceUniformIdentityPath) {
  const gs::UniformSpace space(333);
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    expect_exact_equivalence(space, opts(999, 3, tie), 77, 2, 100);
  }
}

/// A three-server ring: most probes' owner lies far before them, and
/// probes before the first server wrap to the last. With 4 and 8 workers
/// a 64-ball block splits into slices of 32 and 16 probes, and every
/// slice must still reproduce the scalar owners exactly.
TEST(ShardedProcess, CrossShardProbesStillExact) {
  gr::DefaultEngine setup(11);
  const auto space = gs::RingSpace::random(3, setup);
  for (const std::size_t workers : {4u, 8u}) {
    expect_exact_equivalence(space, opts(512, 2, gc::TieBreak::kFirstChoice),
                             66, workers, 64);
  }
}

/// kRandom ties come from one substream split off before the first
/// location, so the loads are identical for every block size and pool
/// size, with no pool included.
TEST(ShardedProcess, RandomTieInvariantAcrossShardsThreadsAndBlocks) {
  gr::DefaultEngine setup(12);
  const auto ring = gs::RingSpace::random(128, setup);
  const auto torus = gs::TorusSpace::random(64, setup);
  const auto o = opts(2500, 2, gc::TieBreak::kRandom);

  auto run = [&](const auto& space, std::uint64_t seed,
                 std::optional<std::size_t> workers, std::size_t block) {
    std::optional<gp::ThreadPool> pool;
    if (workers) pool.emplace(*workers);
    gr::DefaultEngine gen(seed);
    return gc::run_batch_process(space, o, gen, {.block_size = block},
                                 pool ? &*pool : nullptr);
  };

  const auto ring_ref = run(ring, 2024, std::nullopt, 0);
  const auto torus_ref = run(torus, 2025, std::nullopt, 0);
  for (const std::optional<std::size_t> workers :
       {std::optional<std::size_t>(), std::optional<std::size_t>(1),
        std::optional<std::size_t>(2), std::optional<std::size_t>(3),
        std::optional<std::size_t>(8)}) {
    for (const std::size_t block : {64u, 200u, 1024u}) {
      const std::size_t w = workers.value_or(0);
      EXPECT_EQ(ring_ref.loads, run(ring, 2024, workers, block).loads)
          << "ring workers=" << w << " block=" << block;
      EXPECT_EQ(torus_ref.loads, run(torus, 2025, workers, block).loads)
          << "torus workers=" << w << " block=" << block;
    }
  }
}

/// kRandom matches the scalar engine in distribution only: the pooled
/// per-bin loads of 300 trials on an equally spaced ring (76,800 bins
/// each) must pass a two-sample chi-squared test at alpha = 0.001.
TEST(ShardedProcess, RandomTieLoadsMatchScalarInDistribution) {
  const auto space = gs::RingSpace::equally_spaced(256);
  const auto o = opts(256, 2, gc::TieBreak::kRandom);
  gp::ThreadPool pool(2);
  std::vector<std::uint64_t> scalar_loads, pooled_loads;
  for (std::uint64_t t = 0; t < 300; ++t) {
    auto g1 = gr::make_trial_engine(778, t);
    auto g2 = gr::make_trial_engine(778, t);
    gt::add_load_counts(scalar_loads, gc::run_process(space, o, g1).loads);
    gt::add_load_counts(
        pooled_loads,
        gc::run_batch_process(space, o, g2, {.block_size = 64}, &pool).loads);
  }
  gt::same_length(scalar_loads, pooled_loads);
  const auto chi =
      geochoice::stats::chi_squared_two_sample(scalar_loads, pooled_loads);
  EXPECT_FALSE(chi.rejects()) << "chi2 = " << chi.statistic << " on "
                              << chi.dof << " dof";
}

TEST(ShardedProcess, ConservesBallsAndRecordsHeights) {
  gr::DefaultEngine setup(13);
  const auto space = gs::RingSpace::random(64, setup);
  gc::ProcessOptions o = opts(500, 2, gc::TieBreak::kRandom);
  o.record_heights = true;
  gr::DefaultEngine gen(3);
  gp::ThreadPool pool(2);
  const auto r =
      gc::run_batch_process(space, o, gen, {.block_size = 128}, &pool);
  const auto total =
      std::accumulate(r.loads.begin(), r.loads.end(), std::uint64_t{0});
  EXPECT_EQ(total, 500u);
  EXPECT_EQ(r.heights.total(), 500u);
  EXPECT_EQ(r.heights.max_value(), r.max_load);
}

TEST(ShardedProcess, ZeroBallsAndSingleBin) {
  gr::DefaultEngine gen(14);
  const auto one = gs::RingSpace::equally_spaced(1);
  gp::ThreadPool pool(2);
  // Zero balls: the engine must not leave resolve tasks behind when it
  // returns (they would reference its dead stack frame).
  const auto none = gc::run_batch_process(
      one, opts(0, 2, gc::TieBreak::kFirstChoice), gen, {}, &pool);
  EXPECT_EQ(none.max_load, 0u);
  pool.wait();  // nothing should be pending
  const auto all =
      gc::run_batch_process(one, opts(100, 2, gc::TieBreak::kFirstChoice),
                            gen, {.block_size = 32}, &pool);
  EXPECT_EQ(all.max_load, 100u);
  EXPECT_EQ(all.loads[0], 100u);
}

/// One pool and one scratch serve many runs, pooled and sequential in
/// turn; the buffers' previous contents never reach a result.
TEST(ShardedProcess, ExternalPoolAndScratchReuse) {
  gr::DefaultEngine setup(15);
  const auto space = gs::TorusSpace::random(64, setup);
  const auto o = opts(256, 2, gc::TieBreak::kFirstChoice);
  gp::ThreadPool pool(2);
  gc::BatchScratch<geochoice::geometry::Vec2> scratch;
  for (int rep = 0; rep < 4; ++rep) {
    gr::DefaultEngine scalar_gen(500 + rep);
    gr::DefaultEngine batch_gen(500 + rep);
    const auto scalar = gc::run_process(space, o, scalar_gen);
    const auto batched =
        gc::run_batch_process(space, o, batch_gen, {.block_size = 100},
                              rep % 2 == 0 ? &pool : nullptr, &scratch);
    EXPECT_EQ(scalar.loads, batched.loads) << "rep " << rep;
  }
}

/// Server positions pinned to the grids s/k (k = 49, 100, 7, whose doubles
/// can sit on either side of floor(x * k)), to each w/workers with its
/// one-ULP neighbours, and to fillers: at 2, 4, 5 and 7 workers every owner
/// must still be the scalar oracle's.
TEST(ShardedProcess, ExactAtBoundaryULPPositions) {
  for (const std::uint32_t k : {49u, 100u, 7u}) {
    for (const std::size_t workers : {2u, 4u, 5u, 7u}) {
      std::vector<double> pos;
      for (std::uint32_t s = 0; s < k; ++s) {
        pos.push_back(static_cast<double>(s) / static_cast<double>(k));
      }
      for (std::size_t w = 1; w < workers; ++w) {
        const double b =
            static_cast<double>(w) / static_cast<double>(workers);
        pos.push_back(std::nextafter(b, 0.0));
        pos.push_back(b);
        pos.push_back(std::nextafter(b, 1.0));
      }
      pos.push_back(0.0051);
      pos.push_back(0.9973);
      const gs::RingSpace ring(pos);
      expect_exact_equivalence(ring,
                               opts(4096, 2, gc::TieBreak::kFirstChoice),
                               1234, workers, 512);
    }
  }
}
