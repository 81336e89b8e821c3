#include "stats/chi_squared.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace geochoice::stats {

namespace {

/// Upper 0.001 points, computed from the regularized incomplete gamma
/// function and matching the published tables to three decimals.
constexpr std::pair<std::size_t, double> kCritical[] = {
    {1, 10.828},  {2, 13.816},  {3, 16.266},  {4, 18.467},  {5, 20.515},
    {6, 22.458},  {7, 24.322},  {8, 26.124},  {9, 27.877},  {10, 29.588},
    {11, 31.264}, {12, 32.909}, {13, 34.528}, {14, 36.123}, {15, 37.697},
    {16, 39.252}, {63, 103.442}, {69, 111.055},
};

/// The smallest expected count a merged bin may have.
constexpr double kMinExpected = 5.0;

/// End index (exclusive) of each group of consecutive bins whose summed
/// weight (expected count) reaches kMinExpected. A short trailing group
/// joins the one before it.
std::vector<std::size_t> group_ends(const std::vector<double>& weight) {
  std::vector<std::size_t> ends;
  double acc = 0.0;
  for (std::size_t i = 0; i < weight.size(); ++i) {
    acc += weight[i];
    if (acc >= kMinExpected) {
      ends.push_back(i + 1);
      acc = 0.0;
    }
  }
  if (ends.empty()) ends.push_back(weight.size());
  ends.back() = weight.size();
  if (ends.size() < 2) {
    throw std::invalid_argument(
        "chi_squared: fewer than two bins with an expected count of 5");
  }
  return ends;
}

ChiSquaredResult finish(double statistic, std::size_t groups) {
  ChiSquaredResult r;
  r.statistic = statistic;
  r.dof = groups - 1;
  r.critical = chi_squared_critical(r.dof);
  return r;
}

}  // namespace

double chi_squared_critical(std::size_t dof) {
  for (const auto& [d, value] : kCritical) {
    if (d == dof) return value;
  }
  throw std::out_of_range("chi_squared: no tabulated critical value for " +
                          std::to_string(dof) + " degrees of freedom");
}

ChiSquaredResult chi_squared_fit(std::span<const std::uint64_t> observed,
                                 std::span<const double> probabilities) {
  if (observed.empty() || observed.size() != probabilities.size()) {
    throw std::invalid_argument(
        "chi_squared_fit: need one probability per observed bin");
  }
  double n = 0.0, total_p = 0.0;
  for (std::size_t i = 0; i < observed.size(); ++i) {
    if (!(probabilities[i] >= 0.0) || !std::isfinite(probabilities[i])) {
      throw std::invalid_argument(
          "chi_squared_fit: probabilities must be finite and >= 0");
    }
    n += static_cast<double>(observed[i]);
    total_p += probabilities[i];
  }
  if (n == 0.0) throw std::invalid_argument("chi_squared_fit: no samples");
  if (std::abs(total_p - 1.0) > 1e-9) {
    throw std::invalid_argument("chi_squared_fit: probabilities must sum to 1");
  }
  std::vector<double> expected(observed.size());
  for (std::size_t i = 0; i < observed.size(); ++i) {
    expected[i] = n * probabilities[i];
  }
  const auto ends = group_ends(expected);
  double statistic = 0.0;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    double o = 0.0, e = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      o += static_cast<double>(observed[i]);
      e += expected[i];
    }
    statistic += (o - e) * (o - e) / e;
    begin = end;
  }
  return finish(statistic, ends.size());
}

ChiSquaredResult chi_squared_two_sample(std::span<const std::uint64_t> a,
                                        std::span<const std::uint64_t> b) {
  if (a.empty() || a.size() != b.size()) {
    throw std::invalid_argument(
        "chi_squared_two_sample: samples need the same nonempty binning");
  }
  double total_a = 0.0, total_b = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    total_a += static_cast<double>(a[i]);
    total_b += static_cast<double>(b[i]);
  }
  if (total_a == 0.0 || total_b == 0.0) {
    throw std::invalid_argument("chi_squared_two_sample: an empty sample");
  }
  const double total = total_a + total_b;
  const double smaller = total_a < total_b ? total_a : total_b;
  std::vector<double> weight(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    weight[i] = static_cast<double>(a[i] + b[i]) * smaller / total;
  }
  const auto ends = group_ends(weight);
  double statistic = 0.0;
  std::size_t begin = 0;
  for (const std::size_t end : ends) {
    double oa = 0.0, ob = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      oa += static_cast<double>(a[i]);
      ob += static_cast<double>(b[i]);
    }
    const double ea = (oa + ob) * total_a / total;
    const double eb = (oa + ob) * total_b / total;
    statistic += (oa - ea) * (oa - ea) / ea + (ob - eb) * (ob - eb) / eb;
    begin = end;
  }
  return finish(statistic, ends.size());
}

}  // namespace geochoice::stats
