// chi_squared_bins.hpp — binning helpers shared by the chi-squared tests
// (stats/chi_squared.hpp): equiprobable bins under the standard normal
// for rng::normal and the lognormal link delays, and pooled load
// histograms for the kRandom engine comparisons.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace geochoice::testing {

/// Phi(x), the standard normal CDF.
inline double normal_cdf(double x) {
  return 0.5 * std::erfc(-x * 0.70710678118654752440);
}

/// Phi^-1(p) by bisection on normal_cdf: slow, but exact to rounding.
inline double normal_quantile(double p) {
  double lo = -40.0, hi = 40.0;
  for (int i = 0; i < 200; ++i) {
    const double mid = 0.5 * (lo + hi);
    (normal_cdf(mid) < p ? lo : hi) = mid;
  }
  return 0.5 * (lo + hi);
}

/// The k - 1 interior edges that cut the line into k bins of probability
/// 1/k each under Phi.
inline std::vector<double> equiprobable_normal_edges(int k) {
  std::vector<double> edges;
  for (int j = 1; j < k; ++j) {
    edges.push_back(normal_quantile(static_cast<double>(j) / k));
  }
  return edges;
}

/// Bin of `x` among ascending `edges`: bin i is [edges[i-1], edges[i]).
inline std::size_t bin_of(const std::vector<double>& edges, double x) {
  return static_cast<std::size_t>(
      std::upper_bound(edges.begin(), edges.end(), x) - edges.begin());
}

/// Probability of each bin `edges` cuts, under the standard normal.
inline std::vector<double> normal_bin_probabilities(
    const std::vector<double>& edges) {
  std::vector<double> p;
  double below = 0.0;
  for (const double e : edges) {
    const double cdf = normal_cdf(e);
    p.push_back(cdf - below);
    below = cdf;
  }
  p.push_back(normal_cdf(-edges.back()));  // upper tail, without cancellation
  return p;
}

/// Count each bin's final load into `hist` (index = load value).
inline void add_load_counts(std::vector<std::uint64_t>& hist,
                            const std::vector<std::uint32_t>& loads) {
  for (const std::uint32_t l : loads) {
    if (l >= hist.size()) hist.resize(l + 1, 0);
    ++hist[l];
  }
}

/// Zero-extend two load histograms to a common length.
inline void same_length(std::vector<std::uint64_t>& a,
                        std::vector<std::uint64_t>& b) {
  const std::size_t n = std::max(a.size(), b.size());
  a.resize(n, 0);
  b.resize(n, 0);
}

}  // namespace geochoice::testing
