#include "stats/p2_quantile.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace geochoice::stats {

P2Quantile::P2Quantile(double q) : q_(q) {
  if (!(q > 0.0 && q < 1.0)) {
    throw std::invalid_argument("P2Quantile: q must lie in (0, 1)");
  }
  desired_ = {1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0};
  rate_ = {0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0};
}

void P2Quantile::add(double x) noexcept {
  if (count_ < 5) {
    // Bootstrap: collect the first five observations sorted.
    height_[count_] = x;
    ++count_;
    std::sort(height_.begin(), height_.begin() + count_);
    if (count_ == 5) {
      for (int i = 0; i < 5; ++i) pos_[i] = static_cast<double>(i + 1);
    }
    return;
  }

  // Locate the cell containing x, extending the extremes when it falls
  // outside [h_0, h_4].
  int k = 0;
  if (x < height_[0]) {
    height_[0] = x;
    k = 0;
  } else if (x >= height_[4]) {
    height_[4] = x;
    k = 3;
  } else {
    while (k < 3 && x >= height_[k + 1]) ++k;
  }

  for (int i = k + 1; i < 5; ++i) pos_[i] += 1.0;
  for (int i = 0; i < 5; ++i) desired_[i] += rate_[i];
  ++count_;

  // Nudge the three interior markers toward their desired ranks.
  for (int i = 1; i <= 3; ++i) {
    const double d = desired_[i] - pos_[i];
    const bool up = d >= 1.0 && pos_[i + 1] - pos_[i] > 1.0;
    const bool down = d <= -1.0 && pos_[i - 1] - pos_[i] < -1.0;
    if (!up && !down) continue;
    const double s = up ? 1.0 : -1.0;
    // Piecewise-parabolic (P²) height prediction at pos_[i] + s.
    const double np = pos_[i + 1] - pos_[i - 1];
    const double d1 = pos_[i + 1] - pos_[i];
    const double d0 = pos_[i] - pos_[i - 1];
    const double parabolic =
        height_[i] +
        s / np *
            ((d0 + s) * (height_[i + 1] - height_[i]) / d1 +
             (d1 - s) * (height_[i] - height_[i - 1]) / d0);
    if (height_[i - 1] < parabolic && parabolic < height_[i + 1]) {
      height_[i] = parabolic;
    } else {
      // Parabola overshoots a neighbour: fall back to linear interpolation
      // toward the marker in the step direction.
      const int j = i + static_cast<int>(s);
      height_[i] += s * (height_[j] - height_[i]) / (pos_[j] - pos_[i]);
    }
    pos_[i] += s;
  }
}

double P2Quantile::value() const noexcept {
  if (count_ == 0) return 0.0;
  if (count_ >= 5) return height_[2];
  // Exact linear-interpolated empirical quantile of the sorted prefix.
  const auto n = static_cast<std::size_t>(count_);
  if (n == 1) return height_[0];
  const double rank = q_ * static_cast<double>(n - 1);
  const auto lo = static_cast<std::size_t>(rank);
  const double frac = rank - static_cast<double>(lo);
  const std::size_t hi = std::min(lo + 1, n - 1);
  return height_[lo] + frac * (height_[hi] - height_[lo]);
}

P2QuantileSet::P2QuantileSet(std::vector<double> probabilities) {
  if (!std::is_sorted(probabilities.begin(), probabilities.end())) {
    throw std::invalid_argument(
        "P2QuantileSet: probabilities must be ascending");
  }
  estimators_.reserve(probabilities.size());
  for (double q : probabilities) estimators_.emplace_back(q);
}

void P2QuantileSet::add(double x) noexcept {
  for (auto& e : estimators_) e.add(x);
}

double P2QuantileSet::value(std::size_t i) const {
  std::vector<double> sorted;
  sorted.reserve(estimators_.size());
  for (const auto& e : estimators_) sorted.push_back(e.value());
  std::sort(sorted.begin(), sorted.end());
  return sorted[i];
}

}  // namespace geochoice::stats
