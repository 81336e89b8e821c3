// Tests for the RNG substrate: engines, distributions, alias table,
// deterministic stream derivation.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <vector>

#include "chi_squared_bins.hpp"
#include "rng/rng.hpp"
#include "stats/chi_squared.hpp"

namespace gr = geochoice::rng;
namespace gs = geochoice::stats;
namespace gt = geochoice::testing;

// ---------------------------------------------------------------- SplitMix64

TEST(SplitMix64, KnownReferenceValues) {
  // Reference outputs of the canonical splitmix64 with seed 0 (first calls
  // advance the state by the golden gamma before mixing).
  gr::SplitMix64 sm(0);
  EXPECT_EQ(sm(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(sm(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(sm(), 0x06c45d188009454fULL);
}

TEST(SplitMix64, Mix64IsBijectiveOnSamples) {
  std::set<std::uint64_t> outputs;
  for (std::uint64_t i = 0; i < 4096; ++i) {
    outputs.insert(gr::mix64(i));
  }
  EXPECT_EQ(outputs.size(), 4096u);
}

TEST(SplitMix64, CombineDiffersByArgumentOrder) {
  EXPECT_NE(gr::combine(1, 2), gr::combine(2, 1));
  EXPECT_NE(gr::combine(0, 0), gr::combine(0, 1));
}

TEST(SplitMix64, ExpandSeedMatchesEngine) {
  std::array<std::uint64_t, 8> buf{};
  gr::expand_seed(42, buf.data(), buf.size());
  gr::SplitMix64 sm(42);
  for (std::uint64_t v : buf) EXPECT_EQ(v, sm());
}

// ----------------------------------------------------------------- xoshiro256

TEST(Xoshiro256, StarStarDeterministicAndSeedSensitive) {
  gr::Xoshiro256StarStar a(7), b(7), c(8);
  for (int i = 0; i < 100; ++i) {
    const auto va = a();
    EXPECT_EQ(va, b());
    (void)c();
  }
  gr::Xoshiro256StarStar a2(7), c2(8);
  EXPECT_NE(a2(), c2());
}

TEST(Xoshiro256, PlusPlusDiffersFromStarStar) {
  gr::Xoshiro256StarStar ss(123);
  gr::Xoshiro256PlusPlus pp(123);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (ss() == pp()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Xoshiro256, JumpProducesDisjointStream) {
  gr::Xoshiro256StarStar a(99);
  gr::Xoshiro256StarStar b(99);
  b.jump();
  std::set<std::uint64_t> stream_a;
  for (int i = 0; i < 1000; ++i) stream_a.insert(a());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(stream_a.count(b()), 0u) << "overlap at step " << i;
  }
}

TEST(Xoshiro256, JumpThenGenerateEqualsLongGeneration) {
  // jump() must commute with generation: a jumped engine equals an engine
  // whose state was advanced 2^128 times — unverifiable directly, but
  // jump() twice must differ from jump() once.
  gr::Xoshiro256StarStar once(5), twice(5);
  once.jump();
  twice.jump();
  twice.jump();
  EXPECT_NE(once(), twice());
}

TEST(Xoshiro256, LongJumpDisjointFromJump) {
  gr::Xoshiro256StarStar a(3), b(3);
  a.jump();
  b.long_jump();
  std::set<std::uint64_t> sa;
  for (int i = 0; i < 500; ++i) sa.insert(a());
  for (int i = 0; i < 500; ++i) EXPECT_EQ(sa.count(b()), 0u);
}

TEST(Xoshiro256, StateRoundTrip) {
  gr::Xoshiro256StarStar a(17);
  (void)a();
  const auto snapshot = a.state();
  const auto next = a();
  gr::Xoshiro256StarStar b;
  b.set_state(snapshot);
  EXPECT_EQ(b(), next);
}

// -------------------------------------------------------------------- Philox

TEST(Philox, PureFunctionIsDeterministic) {
  const auto b1 = gr::philox4x32(42, 7);
  const auto b2 = gr::philox4x32(42, 7);
  EXPECT_EQ(b1.w, b2.w);
}

TEST(Philox, DifferentCountersGiveDifferentBlocks) {
  std::set<std::uint64_t> lows;
  for (std::uint64_t c = 0; c < 1000; ++c) {
    lows.insert(gr::philox4x32(1, c).lo64());
  }
  EXPECT_EQ(lows.size(), 1000u);
}

TEST(Philox, DifferentKeysGiveDifferentStreams) {
  EXPECT_NE(gr::philox_hash(1, 0), gr::philox_hash(2, 0));
  EXPECT_NE(gr::philox_hash(1, 5), gr::philox_hash(2, 5));
}

TEST(Philox, EngineMatchesBlockOutputs) {
  gr::Philox4x32 eng(9);
  const auto b0 = gr::philox4x32(9, 0);
  const auto b1 = gr::philox4x32(9, 1);
  EXPECT_EQ(eng(), b0.lo64());
  EXPECT_EQ(eng(), b0.hi64());
  EXPECT_EQ(eng(), b1.lo64());
  EXPECT_EQ(eng(), b1.hi64());
}

TEST(Philox, DiscardSkipsExactly) {
  for (std::uint64_t skip : {0ULL, 1ULL, 2ULL, 3ULL, 7ULL, 100ULL}) {
    gr::Philox4x32 a(4), b(4);
    for (std::uint64_t i = 0; i < skip; ++i) (void)a();
    b.discard(skip);
    EXPECT_EQ(a(), b()) << "skip=" << skip;
    EXPECT_EQ(a(), b());
  }
}

TEST(Philox, DiscardAfterConsumptionSkipsExactly) {
  gr::Philox4x32 a(11), b(11);
  (void)a();
  (void)b();  // both at position 1 (mid-block)
  for (int i = 0; i < 5; ++i) (void)a();
  b.discard(5);
  EXPECT_EQ(a(), b());
}

// -------------------------------------------------------------- distributions

TEST(Distributions, Uniform01InRangeWithGoodMean) {
  gr::Xoshiro256StarStar gen(1);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const double u = gr::uniform01(gen);
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Distributions, UniformBelowIsInRangeAndRoughlyUniform) {
  gr::Xoshiro256StarStar gen(2);
  constexpr std::uint64_t kBuckets = 10;
  std::array<int, kBuckets> counts{};
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    const std::uint64_t v = gr::uniform_below(gen, kBuckets);
    ASSERT_LT(v, kBuckets);
    ++counts[v];
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c), kN / 10.0, 5.0 * std::sqrt(kN / 10.0));
  }
}

TEST(Distributions, UniformBelowOneIsAlwaysZero) {
  gr::Xoshiro256StarStar gen(3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(gr::uniform_below(gen, 1), 0u);
}

TEST(Distributions, UniformIntCoversInclusiveRange) {
  gr::Xoshiro256StarStar gen(4);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = gr::uniform_int(gen, -3, 3);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 3);
    saw_lo |= (v == -3);
    saw_hi |= (v == 3);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Distributions, ExponentialHasCorrectMean) {
  gr::Xoshiro256StarStar gen(5);
  double sum = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) sum += gr::exponential(gen, 2.0);
  EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Distributions, BernoulliMatchesProbability) {
  gr::Xoshiro256StarStar gen(6);
  int hits = 0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) hits += gr::bernoulli(gen, 0.3);
  EXPECT_NEAR(hits / static_cast<double>(kN), 0.3, 0.01);
}

TEST(Distributions, GeometricMeanMatches) {
  gr::Xoshiro256StarStar gen(7);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(gr::geometric(gen, 0.25));
  }
  // mean of failures-before-success = (1-p)/p = 3
  EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Distributions, PoissonSmallMean) {
  gr::Xoshiro256StarStar gen(8);
  double sum = 0.0;
  constexpr int kN = 100000;
  for (int i = 0; i < kN; ++i) {
    sum += static_cast<double>(gr::poisson(gen, 3.5));
  }
  EXPECT_NEAR(sum / kN, 3.5, 0.1);
}

TEST(Distributions, NormalMeanAndVariance) {
  gr::Xoshiro256StarStar gen(9);
  double sum = 0.0, sum2 = 0.0;
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) {
    const double z = gr::normal(gen);
    sum += z;
    sum2 += z * z;
  }
  EXPECT_NEAR(sum / kN, 0.0, 0.02);
  EXPECT_NEAR(sum2 / kN, 1.0, 0.03);
}

namespace {

/// 64 equiprobable bins under Phi, with the outer two split at the
/// ziggurat's R and beyond it, so the tail branch's output (exactly the
/// draws with |z| >= R) is binned on its own: 70 bins, 69 dof.
std::vector<double> ziggurat_test_edges() {
  auto edges = gt::equiprobable_normal_edges(64);
  const double r = gr::kZigguratR;
  edges.insert(edges.begin(), {-4.2, -3.9, -r});
  edges.insert(edges.end(), {r, 3.9, 4.2});
  return edges;
}

/// 2^22 draws of `draw` (seed 1808), binned by ziggurat_test_edges.
template <typename Draw>
std::vector<std::uint64_t> binned_normals(const std::vector<double>& edges,
                                          Draw draw) {
  gr::Xoshiro256StarStar gen(1808);
  std::vector<std::uint64_t> counts(edges.size() + 1, 0);
  for (std::uint32_t i = 0; i < (1u << 22); ++i) {
    ++counts[gt::bin_of(edges, draw(gen))];
  }
  return counts;
}

}  // namespace

TEST(Distributions, ZigguratNormalFitsPhi) {
  const auto edges = ziggurat_test_edges();
  const auto counts = binned_normals(
      edges, [](gr::Xoshiro256StarStar& g) { return gr::normal(g); });
  const auto chi =
      gs::chi_squared_fit(counts, gt::normal_bin_probabilities(edges));
  EXPECT_EQ(chi.dof, 69u);
  EXPECT_FALSE(chi.rejects()) << "chi2 = " << chi.statistic;
  // The tail branch ran: ~56 draws per side are expected beyond 4.2.
  EXPECT_GT(counts.front(), 0u);
  EXPECT_GT(counts.back(), 0u);
}

TEST(Distributions, ZigguratFitCatchesATailBranchThatReturnsR) {
  // Draws with |z| >= R come only from the tail branch, so clamping them
  // to R gives exactly the output of a tail branch that returns R.
  const auto edges = ziggurat_test_edges();
  const auto counts =
      binned_normals(edges, [](gr::Xoshiro256StarStar& g) {
        const double z = gr::normal(g);
        return std::clamp(z, -gr::kZigguratR, gr::kZigguratR);
      });
  const auto chi =
      gs::chi_squared_fit(counts, gt::normal_bin_probabilities(edges));
  EXPECT_TRUE(chi.rejects()) << "chi2 = " << chi.statistic;
}

TEST(Distributions, BoxMullerReferenceFitsPhi) {
  const auto edges = ziggurat_test_edges();
  const auto counts = binned_normals(edges, [](gr::Xoshiro256StarStar& g) {
    return gr::normal_box_muller(g);
  });
  const auto chi =
      gs::chi_squared_fit(counts, gt::normal_bin_probabilities(edges));
  EXPECT_FALSE(chi.rejects()) << "chi2 = " << chi.statistic;
}

TEST(Distributions, ZigguratUsesAboutOneWordPerNormal) {
  // The fast path takes one word ~98.5% of the time; the tail and wedge
  // branches add a word or two. Anything near 2 words per draw would mean
  // the fast path is broken (Box–Muller always takes exactly 2).
  struct Counting {
    using result_type = std::uint64_t;
    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type{0}; }
    result_type operator()() {
      ++words;
      return inner();
    }
    gr::Xoshiro256StarStar inner{1809};
    std::uint64_t words = 0;
  } gen;
  constexpr std::uint64_t kDraws = 1 << 20;
  for (std::uint64_t i = 0; i < kDraws; ++i) (void)gr::normal(gen);
  const double per_draw =
      static_cast<double>(gen.words) / static_cast<double>(kDraws);
  EXPECT_GT(per_draw, 1.0);
  EXPECT_LT(per_draw, 1.05);
}

// ---------------------------------------------------------------- AliasTable

TEST(AliasTable, UniformWeightsSampleUniformly) {
  const std::vector<double> w(8, 1.0);
  gr::AliasTable table(w);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(table.probability_of(i), 1.0 / 8.0, 1e-12);
  }
}

TEST(AliasTable, SkewedWeightsExactProbabilities) {
  const std::vector<double> w = {1.0, 2.0, 3.0, 4.0};
  gr::AliasTable table(w);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(table.probability_of(i), w[i] / 10.0, 1e-12) << i;
  }
}

TEST(AliasTable, EmpiricalFrequenciesMatch) {
  const std::vector<double> w = {0.5, 0.1, 0.9, 2.5};
  gr::AliasTable table(w);
  gr::Xoshiro256StarStar gen(10);
  std::array<int, 4> counts{};
  constexpr int kN = 200000;
  for (int i = 0; i < kN; ++i) ++counts[table.sample(gen)];
  const double total = 4.0;
  for (std::size_t i = 0; i < 4; ++i) {
    const double expected = w[i] / total;
    EXPECT_NEAR(counts[i] / static_cast<double>(kN), expected, 0.01) << i;
  }
}

TEST(AliasTable, RejectsInvalidWeights) {
  EXPECT_THROW(gr::AliasTable(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(gr::AliasTable(std::vector<double>{0.0, 0.0}),
               std::invalid_argument);
  EXPECT_THROW(gr::AliasTable(std::vector<double>{1.0, -1.0}),
               std::invalid_argument);
}

TEST(AliasTable, ZipfWeightsDecreasing) {
  const auto w = gr::zipf_weights(10, 1.0);
  for (std::size_t i = 1; i < w.size(); ++i) EXPECT_LT(w[i], w[i - 1]);
  EXPECT_DOUBLE_EQ(w[0], 1.0);
  EXPECT_DOUBLE_EQ(w[1], 0.5);
}

TEST(AliasTable, ZipfAlphaZeroIsUniform) {
  const auto w = gr::zipf_weights(5, 0.0);
  for (double x : w) EXPECT_DOUBLE_EQ(x, 1.0);
}

// ------------------------------------------------------------------- streams

TEST(Streams, TrialSeedsAreDistinct) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t t = 0; t < 10000; ++t) {
    seeds.insert(gr::trial_seed(42, t));
  }
  EXPECT_EQ(seeds.size(), 10000u);
}

TEST(Streams, PurposeSeparatesSubstreams) {
  auto a = gr::make_stream(1, 0, gr::StreamPurpose::kServerPlacement);
  auto b = gr::make_stream(1, 0, gr::StreamPurpose::kBallChoices);
  EXPECT_NE(a(), b());
}

TEST(Streams, SameInputsSameStream) {
  auto a = gr::make_stream(5, 3, gr::StreamPurpose::kGeneric);
  auto b = gr::make_stream(5, 3, gr::StreamPurpose::kGeneric);
  for (int i = 0; i < 32; ++i) EXPECT_EQ(a(), b());
}

TEST(Streams, MasterSeedChangesEverything) {
  auto a = gr::make_trial_engine(1, 0);
  auto b = gr::make_trial_engine(2, 0);
  EXPECT_NE(a(), b());
}
