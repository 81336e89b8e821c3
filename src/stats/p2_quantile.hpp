// p2_quantile.hpp — streaming quantile estimation without storing samples.
//
// The discrete-event network simulator (net/) produces one latency and one
// hop-count observation per lookup; a latency-SLO study wants p50/p90/p99
// of millions of those without keeping traces. The P² algorithm (Jain &
// Chlamtac, CACM 1985) maintains five markers — the minimum, the maximum,
// the target quantile, and the two midpoints — and nudges them toward
// their desired rank positions with a piecewise-parabolic update. O(1)
// memory, O(1) per observation, and for the smooth distributions the
// simulator emits the estimate lands within a fraction of a percent of the
// exact empirical quantile (tests/test_p2_quantile.cpp quantifies this,
// including an adversarial sorted stream).
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace geochoice::stats {

/// One P² marker bank tracking a single quantile q in (0, 1).
class P2Quantile {
 public:
  explicit P2Quantile(double q);

  /// Feed one observation.
  void add(double x) noexcept;

  /// Current estimate of the q-quantile. Exact (sorted-sample linear
  /// interpolation) while fewer than five observations have arrived; 0 when
  /// empty.
  [[nodiscard]] double value() const noexcept;

  [[nodiscard]] double probability() const noexcept { return q_; }
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }

 private:
  double q_;
  std::uint64_t count_ = 0;
  std::array<double, 5> height_{};    // marker heights h_i
  std::array<double, 5> pos_{};       // actual positions n_i (1-based ranks)
  std::array<double, 5> desired_{};   // desired positions n'_i
  std::array<double, 5> rate_{};      // desired-position increments dn'_i
};

/// A bank of P² estimators over a fixed ascending probability list (e.g.
/// p50/p90/p99), fed once per observation. Each probability has its own
/// estimator, and independent estimators can cross (a p90 estimate above
/// the p99 one), so value(i) reads the estimates sorted ascending: the
/// monotone rearrangement, which leaves estimates that do not cross as
/// they are.
class P2QuantileSet {
 public:
  /// Throws std::invalid_argument unless `probabilities` ascend.
  explicit P2QuantileSet(std::vector<double> probabilities);

  void add(double x) noexcept;

  [[nodiscard]] std::size_t size() const noexcept {
    return estimators_.size();
  }
  [[nodiscard]] double probability(std::size_t i) const noexcept {
    return estimators_[i].probability();
  }
  /// The i-th smallest estimate.
  [[nodiscard]] double value(std::size_t i) const;
  [[nodiscard]] std::uint64_t count() const noexcept {
    return estimators_.empty() ? 0 : estimators_.front().count();
  }

 private:
  std::vector<P2Quantile> estimators_;
};

}  // namespace geochoice::stats
