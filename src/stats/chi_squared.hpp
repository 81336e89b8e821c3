// chi_squared.hpp — Pearson chi-squared tests on binned counts, for
// changes that are equal in distribution but not bit-identical.
//
// Two forms:
//   * chi_squared_fit: observed counts against expected bin
//     probabilities (goodness of fit, e.g. rng::normal against Phi);
//   * chi_squared_two_sample: two samples binned alike, tested for a
//     common distribution (homogeneity of a 2 x k table, e.g. the ziggurat
//     lognormal against the Box–Muller one, or two engines' load
//     histograms).
//
// Both run at one fixed significance level, alpha = 0.001, against
// tabulated critical values, and the tests that use them fix their seeds:
// a pass or a failure is a deterministic fact about the code, not a coin
// flip that a rerun might reverse. Bins whose expected count is below 5
// are merged with their neighbours first, so the chi-squared
// approximation holds; the degrees of freedom count the merged bins.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

namespace geochoice::stats {

/// The significance level of every test here.
inline constexpr double kChiSquaredAlpha = 0.001;

struct ChiSquaredResult {
  double statistic = 0.0;
  std::size_t dof = 0;
  /// Upper kChiSquaredAlpha point of chi-squared with `dof` degrees.
  double critical = 0.0;

  /// True when the statistic exceeds the critical value: the data reject
  /// the null hypothesis at alpha = 0.001.
  [[nodiscard]] bool rejects() const noexcept { return statistic > critical; }
};

/// Upper 0.001 point of the chi-squared distribution with `dof` degrees
/// of freedom. Tabulated for 1-16, 63 and 69 (the degrees the tests use);
/// throws std::out_of_range for any other.
[[nodiscard]] double chi_squared_critical(std::size_t dof);

/// Goodness of fit of `observed` counts to bin `probabilities` (same
/// length, nonnegative, summing to 1). Throws std::invalid_argument on
/// mismatched or empty input, a zero total, or fewer than two bins left
/// after merging.
[[nodiscard]] ChiSquaredResult chi_squared_fit(
    std::span<const std::uint64_t> observed,
    std::span<const double> probabilities);

/// Homogeneity of two samples binned alike (`a` and `b` the same length,
/// each with a positive total). Expected counts come from the pooled
/// bins; merging uses the smaller sample's expected count. Throws like
/// chi_squared_fit.
[[nodiscard]] ChiSquaredResult chi_squared_two_sample(
    std::span<const std::uint64_t> a, std::span<const std::uint64_t> b);

}  // namespace geochoice::stats
