#include "geometry/ring_arithmetic.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <stdexcept>

namespace geochoice::geometry {

std::size_t ring_owner(std::span<const double> sorted_positions,
                       double x) noexcept {
  assert(!sorted_positions.empty());
  // First position strictly greater than x; the owner is its predecessor.
  const auto it = std::upper_bound(sorted_positions.begin(),
                                   sorted_positions.end(), x);
  if (it == sorted_positions.begin()) {
    // x precedes every server: it lies on the wrapping arc of the last one.
    return sorted_positions.size() - 1;
  }
  return static_cast<std::size_t>(it - sorted_positions.begin()) - 1;
}

namespace {

// Buckets of at most this many positions are counted without a branch;
// larger ones take std::upper_bound. A uniform ring has one position per
// bucket on average (Poisson(1)), so about 0.4% of buckets are larger.
constexpr std::uint32_t kCountWidth = 4;

// Queries per pass pair: their parked buckets stay in L1 between passes.
constexpr std::size_t kChunk = 2048;

// How many queries ahead the counting pass prefetches positions.
constexpr std::size_t kAhead = 8;

}  // namespace

std::vector<std::uint32_t> sort_ring_positions(
    std::vector<double>& positions) {
  const std::size_t n = positions.size();
  if (n == 0) {
    throw std::invalid_argument("ring positions: need at least one");
  }
  const auto buckets = static_cast<std::uint32_t>(n);

  // Count each bucket. The range check comes first: casting a negative or
  // NaN product to an unsigned integer is undefined.
  std::vector<std::uint32_t> dir(n + 1, 0);
  for (const double p : positions) {
    if (!(p >= 0.0 && p < 1.0)) {
      throw std::invalid_argument("ring positions must lie in [0, 1)");
    }
    ++dir[ring_bucket(p, buckets)];
  }
  // Inclusive prefix sum: dir[b] is the end of bucket b. The reverse
  // scatter moves each end back to its bucket's start.
  for (std::size_t b = 1; b < n; ++b) dir[b] += dir[b - 1];
  {
    std::vector<double> scattered(n);
    for (std::size_t i = n; i-- > 0;) {
      const double p = positions[i];
      scattered[--dir[ring_bucket(p, buckets)]] = p;
    }
    // Back into the caller's vector, so the buffer that lives on is the
    // one it passed in and the scatter buffer is freed here.
    std::copy(scattered.begin(), scattered.end(), positions.begin());
  }
  dir[n] = static_cast<std::uint32_t>(n);

  for (std::size_t b = 0; b < n; ++b) {
    if (dir[b + 1] - dir[b] > 1) {
      std::sort(positions.begin() + dir[b], positions.begin() + dir[b + 1]);
    }
  }
  return dir;
}

void ring_owner_batch(std::span<const double> sorted_positions,
                      std::span<const std::uint32_t> directory,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept {
  assert(!sorted_positions.empty());
  assert(directory.size() == sorted_positions.size() + 1);
  assert(xs.size() == out.size());
  const double* const pos = sorted_positions.data();
  const std::uint32_t* const dir = directory.data();
  const auto buckets = static_cast<std::uint32_t>(sorted_positions.size());
  const std::uint32_t last = buckets - 1;

  for (std::size_t begin = 0; begin < xs.size(); begin += kChunk) {
    const std::size_t len = std::min(kChunk, xs.size() - begin);
    const double* const x = xs.data() + begin;
    std::uint32_t* const o = out.data() + begin;
    // Pass 1: park each query's bucket in its output slot and pull the
    // bucket's directory entry in.
    for (std::size_t q = 0; q < len; ++q) {
      o[q] = ring_bucket(x[q], buckets);
      __builtin_prefetch(dir + o[q]);
    }
    // Pass 2: the positions <= x in x's sorted bucket are a prefix of it;
    // the owner is the position just before the prefix ends, or the last
    // one when nothing precedes x.
    for (std::size_t q = 0; q < len; ++q) {
      if (q + kAhead < len) __builtin_prefetch(pos + dir[o[q + kAhead]]);
      const std::uint32_t lo = dir[o[q]];
      const std::uint32_t hi = dir[o[q] + 1];
      std::uint32_t end = lo;
      if (hi - lo <= kCountWidth) [[likely]] {
        for (std::uint32_t k = lo; k < lo + kCountWidth; ++k) {
          end += (k < hi) & (pos[std::min(k, last)] <= x[q]);
        }
      } else {
        end = static_cast<std::uint32_t>(
            std::upper_bound(pos + lo, pos + hi, x[q]) - pos);
      }
      o[q] = end == 0 ? last : end - 1;
    }
  }
}

std::vector<double> arc_lengths(std::span<const double> sorted_positions) {
  const std::size_t n = sorted_positions.size();
  std::vector<double> arcs(n);
  if (n == 0) return arcs;
  if (n == 1) {
    arcs[0] = 1.0;
    return arcs;
  }
  for (std::size_t i = 0; i + 1 < n; ++i) {
    arcs[i] = sorted_positions[i + 1] - sorted_positions[i];
  }
  arcs[n - 1] = 1.0 - sorted_positions[n - 1] + sorted_positions[0];
  return arcs;
}

std::size_t count_arcs_at_least(std::span<const double> arcs,
                                double threshold) noexcept {
  std::size_t count = 0;
  for (double a : arcs) {
    if (a >= threshold) ++count;
  }
  return count;
}

double sum_of_largest(std::span<const double> arcs, std::size_t a) {
  a = std::min(a, arcs.size());
  if (a == 0) return 0.0;
  std::vector<double> copy(arcs.begin(), arcs.end());
  std::nth_element(copy.begin(), copy.begin() + static_cast<std::ptrdiff_t>(a) - 1,
                   copy.end(), std::greater<>());
  double sum = 0.0;
  for (std::size_t i = 0; i < a; ++i) sum += copy[i];
  return sum;
}

}  // namespace geochoice::geometry
