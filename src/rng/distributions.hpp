// distributions.hpp — variate generation on top of any
// std::uniform_random_bit_generator producing 64-bit words.
//
// The standard library's <random> distributions are not guaranteed to be
// reproducible across implementations; every distribution used by geochoice
// experiments is defined here with a fixed algorithm so that a (seed,
// algorithm) pair pins down a simulation exactly.
//
// Normal variates come in two algorithms:
//   * normal(): a 256-layer ziggurat (Marsaglia & Tsang, J. Stat. Softw.
//     5(8), 2000). One engine word per draw about 98.5% of the time, a
//     table lookup, a compare and a multiply; no libm call on that path.
//     This is what the simulator's lognormal link delays use.
//   * normal_box_muller(): the Box–Muller cosine branch, two words and
//     log1p/sqrt/cos per draw. It stays for two reasons: it is the
//     independent reference the ziggurat is chi-squared-tested against
//     (tests/test_rng.cpp, tests/test_net_sim.cpp), and poisson()'s
//     large-mean fallback draws it, which keeps that stream fixed.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cmath>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <random>  // std::uniform_random_bit_generator

namespace geochoice::rng {

/// Any generator producing full-range uint64 words.
template <typename G>
concept Engine64 =
    std::uniform_random_bit_generator<G> &&
    std::same_as<typename G::result_type, std::uint64_t>;

/// Uniform double in [0, 1) with 53 random bits of mantissa. This is the
/// canonical "hash to the unit circle / unit torus" primitive of the paper.
template <Engine64 G>
[[nodiscard]] double uniform01(G& gen) noexcept {
  return static_cast<double>(gen() >> 11) * 0x1.0p-53;
}

/// Uniform double in [lo, hi).
template <Engine64 G>
[[nodiscard]] double uniform_real(G& gen, double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform01(gen);
}

/// Uniform integer in [0, n) by Lemire's nearly-divisionless method
/// ("Fast random integer generation in an interval", TOMACS 2019).
/// Exactly unbiased; at most one multiply on the fast path.
template <Engine64 G>
[[nodiscard]] std::uint64_t uniform_below(G& gen, std::uint64_t n) noexcept {
  assert(n > 0);
  std::uint64_t x = gen();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  std::uint64_t l = static_cast<std::uint64_t>(m);
  if (l < n) {
    const std::uint64_t t = (0 - n) % n;  // 2^64 mod n
    while (l < t) {
      x = gen();
      m = static_cast<__uint128_t>(x) * n;
      l = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

/// Uniform integer in [lo, hi] inclusive.
template <Engine64 G>
[[nodiscard]] std::int64_t uniform_int(G& gen, std::int64_t lo,
                                       std::int64_t hi) noexcept {
  assert(lo <= hi);
  const std::uint64_t span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // may wrap to 0 for full range
  if (span == 0) return static_cast<std::int64_t>(gen());
  return lo + static_cast<std::int64_t>(uniform_below(gen, span));
}

/// Bernoulli(p) trial.
template <Engine64 G>
[[nodiscard]] bool bernoulli(G& gen, double p) noexcept {
  return uniform01(gen) < p;
}

/// Exponential(rate) variate by inversion. Used by the Poissonized
/// ring/torus models and churn workloads.
template <Engine64 G>
[[nodiscard]] double exponential(G& gen, double rate) noexcept {
  assert(rate > 0.0);
  // 1 - U in (0, 1] avoids log(0).
  return -std::log1p(-uniform01(gen)) / rate;
}

/// Geometric(p) on {0, 1, 2, ...}: number of failures before first success.
template <Engine64 G>
[[nodiscard]] std::uint64_t geometric(G& gen, double p) noexcept {
  assert(p > 0.0 && p <= 1.0);
  if (p >= 1.0) return 0;
  return static_cast<std::uint64_t>(
      std::floor(std::log1p(-uniform01(gen)) / std::log1p(-p)));
}

/// Standard normal via Box–Muller (cosine branch): exactly two engine
/// words, in sequence (the evaluation order is pinned here — an
/// argument-list call would leave it unspecified). The reference sampler;
/// simulations draw normal() below.
template <Engine64 G>
[[nodiscard]] double normal_box_muller(G& gen) noexcept {
  const double u1 = uniform01(gen);
  const double u2 = uniform01(gen);
  return std::sqrt(-2.0 * std::log1p(-u1)) *
         std::cos(6.283185307179586476925286766559 * u2);
}

/// Poisson(mean) by inversion for small means and PTRD-free normal
/// approximation fallback for large means (mean > 64). The experiments only
/// need small means (Poissonized arrivals), but the fallback keeps the
/// function total.
template <Engine64 G>
[[nodiscard]] std::uint64_t poisson(G& gen, double mean) noexcept {
  assert(mean >= 0.0);
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    // Knuth inversion in the log domain to avoid underflow.
    const double l = -mean;
    double acc = 0.0;
    std::uint64_t k = 0;
    while (true) {
      acc += std::log1p(-uniform01(gen));  // log of uniform product
      if (acc < l) return k;
      ++k;
    }
  }
  // Normal approximation with continuity correction; adequate for the
  // tail-insensitive uses in geochoice workload generators.
  const double v = mean + std::sqrt(mean) * normal_box_muller(gen) + 0.5;
  return v <= 0.0 ? 0 : static_cast<std::uint64_t>(v);
}

/// Right edge R of the ziggurat's base strip: |normal()| >= R comes only
/// from the tail branch. Marsaglia & Tsang's value for 256 layers.
inline constexpr double kZigguratR = 3.6541528853610088;

namespace detail {

inline constexpr std::size_t kZigguratLayers = 256;

/// Layer tables of the 256-layer ziggurat under f(x) = exp(-x^2 / 2).
/// Edges x[0] > x[1] = R > ... > x[255] > x[256] = 0; every layer has the
/// area v of the base strip (the rectangle under f(R) plus the tail beyond
/// R), and x[0] = v / f(R) is the base strip's pseudo-width.
struct ZigguratTables {
  struct Layer {
    /// Fast accept iff the 52-bit uniform u < accept: then u * 2^-52 *
    /// x[i] < x[i+1], inside the layer's core rectangle, under f.
    std::uint64_t accept = 0;
    double width = 0.0;  // x[i] * 2^-52: u * width is the candidate |z|
  };
  std::array<Layer, kZigguratLayers> layer{};
  std::array<double, kZigguratLayers + 1> f{};  // f(x[i])
};

/// The tables, built once at static initialization (ziggurat.cpp). A
/// namespace-scope object rather than a function-local static, so that
/// normal()'s fast path carries no guard check and inlines; no static
/// initializer in the library draws a normal.
extern const ZigguratTables kZiggurat;

/// Put bit 8 of `word` onto `x` (x >= 0) as its sign bit.
[[nodiscard]] inline double with_sign(double x, std::uint64_t word) noexcept {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(x) |
                               (word & 0x100) << 55);
}

/// The ziggurat's rare branches, for a `word` that missed its layer's core
/// rectangle: the tail beyond R for the base layer, the wedge test for the
/// others, and a fresh word after a wedge miss. Kept out of line so that
/// normal()'s fast path inlines without this code's register pressure.
template <Engine64 G>
[[gnu::noinline]] double normal_slow(G& gen, std::uint64_t word) noexcept {
  const ZigguratTables& z = kZiggurat;
  for (;;) {
    const std::size_t i = word & (kZigguratLayers - 1);
    const std::uint64_t u = word >> 12;
    const double x = static_cast<double>(u) * z.layer[i].width;
    if (u < z.layer[i].accept) return with_sign(x, word);
    if (i == 0) {
      // Marsaglia's exponential method for the tail beyond R.
      for (;;) {
        const double e = -std::log1p(-uniform01(gen)) / kZigguratR;
        const double y = -std::log1p(-uniform01(gen));
        if (y + y >= e * e) return with_sign(kZigguratR + e, word);
      }
    }
    const double y = z.f[i] + uniform01(gen) * (z.f[i + 1] - z.f[i]);
    if (y < std::exp(-0.5 * x * x)) return with_sign(x, word);
    word = gen();
  }
}

}  // namespace detail

/// Standard normal via the 256-layer ziggurat. Each attempt draws one
/// word and splits it into disjoint bits — layer index (bits 0-7), sign
/// (bit 8), 52-bit uniform (bits 12-63) — so the index and the uniform are
/// independent (Doornik 2005 shows the bias when they share bits). Inside
/// the layer's core rectangle (~98.5% of draws) that word is the variate.
/// Otherwise the base layer samples the tail beyond R by Marsaglia's
/// exponential method, and the others test the wedge against f with one
/// more word, starting over on a miss. The number of words per variate
/// therefore varies; callers must give it a stream of its own.
template <Engine64 G>
[[nodiscard]] double normal(G& gen) noexcept {
  const std::uint64_t word = gen();
  const auto& layer =
      detail::kZiggurat.layer[word & (detail::kZigguratLayers - 1)];
  const std::uint64_t u = word >> 12;
  if (u < layer.accept) [[likely]] {
    return detail::with_sign(static_cast<double>(u) * layer.width, word);
  }
  return detail::normal_slow(gen, word);
}

}  // namespace geochoice::rng
