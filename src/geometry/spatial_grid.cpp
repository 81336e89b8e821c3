#include "geometry/spatial_grid.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

namespace geochoice::geometry {

namespace {

/// (d², site index) packed so that integer order is the (d², lowest index)
/// order: for d² >= 0 the IEEE-754 bits of a double order like its value.
using Key = unsigned __int128;

[[nodiscard]] inline Key make_key(double d2, std::uint32_t idx) noexcept {
  return (static_cast<Key>(std::bit_cast<std::uint64_t>(d2)) << 32) | idx;
}

[[nodiscard]] inline double key_dist2(Key key) noexcept {
  return std::bit_cast<double>(static_cast<std::uint64_t>(key >> 32));
}

}  // namespace

SpatialGrid::SpatialGrid(std::span<const Vec2> sites,
                         std::uint32_t buckets_per_axis)
    : sites_(sites.begin(), sites.end()) {
  const std::size_t n = sites_.size();
  std::uint32_t k = buckets_per_axis;
  if (k == 0) {
    k = static_cast<std::uint32_t>(
        std::max(1.0, std::floor(std::sqrt(static_cast<double>(n)))));
  }
  // An odd bucket count makes the Chebyshev rings 0..(k-1)/2 an exact
  // partition of all buckets, so ring iteration never revisits a site.
  if (k % 2 == 0) ++k;
  k_ = k;
  cell_ = 1.0 / static_cast<double>(k_);

  // Count each padded bucket, ghosts included: a site in column 0 is also
  // counted in its row's trailing ghost, one in column k-1 in the leading
  // ghost (with k == 1 both).
  const std::size_t padded = padded_slot(k_, 0);
  std::vector<std::uint32_t> count(padded + 1, 0);
  std::vector<std::uint32_t> slot_of_site(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint32_t bx = bucket_of(sites_[i].x);
    const std::size_t p = padded_slot(bucket_of(sites_[i].y), bx + 1);
    slot_of_site[i] = static_cast<std::uint32_t>(p);
    ++count[p + 1];
    if (bx == 0) ++count[p + k_ + 1];
    if (bx == k_ - 1) ++count[p - k_ + 1];
  }
  for (std::size_t p = 0; p < padded; ++p) count[p + 1] += count[p];
  row_start_ = count;
  ids_.resize(row_start_.back());
  std::vector<std::uint32_t> cursor(row_start_.begin(), row_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    ids_[cursor[slot_of_site[i]]++] = static_cast<std::uint32_t>(i);
  }
  // The ghosts copy the filled buckets of columns 0 and k-1.
  for (std::size_t row = 0; row < k_; ++row) {
    const std::uint32_t* const at = row_start_.data() + padded_slot(row, 0);
    std::copy(ids_.begin() + at[k_], ids_.begin() + at[k_ + 1],
              ids_.begin() + at[0]);
    std::copy(ids_.begin() + at[1], ids_.begin() + at[2],
              ids_.begin() + at[k_ + 1]);
  }

  xs_.resize(ids_.size());
  ys_.resize(ids_.size());
  for (std::size_t i = 0; i < ids_.size(); ++i) {
    xs_[i] = sites_[ids_[i]].x;
    ys_[i] = sites_[ids_[i]].y;
  }
}

std::uint32_t SpatialGrid::bucket_of(double coord) const noexcept {
  const double w = wrap01(coord);
  auto b = static_cast<std::uint32_t>(w * static_cast<double>(k_));
  return b >= k_ ? k_ - 1 : b;  // guard the w -> 1.0 rounding edge
}

std::uint32_t SpatialGrid::ring_cover(double radius) const noexcept {
  const std::uint32_t max_full = (k_ - 1) / 2;
  if (radius >= 0.5 * kTorusDiameter * 2.0) return max_full;
  // Need rings whose inner edge is within `radius`: ring r covers Chebyshev
  // distances >= (r-1)*cell from anywhere inside the center bucket.
  const double rings = std::ceil(radius / cell_) + 1.0;
  if (rings >= static_cast<double>(max_full)) return max_full;
  return static_cast<std::uint32_t>(rings);
}

double SpatialGrid::ring_min_dist(Vec2 /*q*/,
                                  std::uint32_t ring) const noexcept {
  // Conservative lower bound on the torus distance from any point of the
  // center bucket to any point of a ring-`ring` bucket: (ring-1) bucket
  // widths (Euclidean >= Chebyshev).
  if (ring <= 1) return 0.0;
  return static_cast<double>(ring - 1) * cell_;
}

std::uint32_t SpatialGrid::nearest(Vec2 q) const noexcept {
  assert(!sites_.empty());
  std::uint32_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  const std::uint32_t max_ring = (k_ - 1) / 2;
  for (std::uint32_t ring = 0; ring <= max_ring; ++ring) {
    const double lower = ring_min_dist(q, ring);
    if (lower * lower > best_d2) break;
    visit_ring(q, ring, [&](std::uint32_t idx) {
      const double d2 = torus_dist2(sites_[idx], q);
      if (d2 < best_d2 || (d2 == best_d2 && idx < best)) {
        best_d2 = d2;
        best = idx;
      }
    });
  }
  return best;
}

double SpatialGrid::nearest_dist2(Vec2 q) const noexcept {
  return torus_dist2(sites_[nearest(q)], q);
}

SpatialGrid::Block SpatialGrid::block_of(Vec2 q) const noexcept {
  const std::uint32_t bx = bucket_of(q.x);
  const std::uint32_t by = bucket_of(q.y);
  const std::uint32_t up = by == 0 ? k_ - 1 : by - 1;
  const std::uint32_t down = by + 1 == k_ ? 0 : by + 1;
  const std::uint32_t* const rows = row_start_.data();
  return {{rows + padded_slot(up, bx), rows + padded_slot(by, bx),
           rows + padded_slot(down, bx)}};
}

std::uint32_t SpatialGrid::nearest_scan(Vec2 q,
                                        const Block& block) const noexcept {
  assert(!sites_.empty());
  const double qx = wrap01(q.x);
  const double qy = wrap01(q.y);
  const double* const xs = xs_.data();
  const double* const ys = ys_.data();
  const std::uint32_t* const ids = ids_.data();
  // Equal to torus_dist2 bit for bit on [0,1): min(|d|, 1 - |d|) is
  // |torus_delta| (Sterbenz: 1 - |d| is exact for |d| >= 1/2), and the
  // squares drop the sign.
  auto key_of = [&](std::uint32_t i) {
    const double ax = std::fabs(xs[i] - qx);
    const double ay = std::fabs(ys[i] - qy);
    const double dx = std::min(ax, 1.0 - ax);
    const double dy = std::min(ay, 1.0 - ay);
    return make_key(dx * dx + dy * dy, ids[i]);
  };
  Key best = make_key(std::numeric_limits<double>::infinity(), 0);

  // Walk the three ranges as one sequence t, so the only data-dependent
  // branch is the loop's own exit. Entry of step t is t + shift, with
  // unsigned wraparound in the shifts.
  const std::uint32_t* const r0 = block.row[0];
  const std::uint32_t* const r1 = block.row[1];
  const std::uint32_t* const r2 = block.row[2];
  const std::uint32_t end0 = r0[3] - r0[0];
  const std::uint32_t end1 = end0 + (r1[3] - r1[0]);
  const std::uint32_t end2 = end1 + (r2[3] - r2[0]);
  const std::uint32_t shift0 = r0[0];
  const std::uint32_t shift1 = r1[0] - end0;
  const std::uint32_t shift2 = r2[0] - end1;
  for (std::uint32_t t = 0; t < end2; ++t) {
    const std::uint32_t shift =
        t < end0 ? shift0 : (t < end1 ? shift1 : shift2);
    best = std::min(best, key_of(t + shift));
  }

  const std::uint32_t max_ring = (k_ - 1) / 2;
  for (std::uint32_t ring = 2; ring <= max_ring; ++ring) {
    const double lower = ring_min_dist(q, ring);
    if (lower * lower > key_dist2(best)) break;
    for_each_ring_range(bucket_of(qx), bucket_of(qy), ring,
                        [&](std::uint32_t begin, std::uint32_t end) {
                          for (std::uint32_t i = begin; i < end; ++i) {
                            best = std::min(best, key_of(i));
                          }
                        });
  }
  return static_cast<std::uint32_t>(best);
}

void SpatialGrid::nearest_batch(std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const {
  assert(qs.size() == out.size());
  const std::size_t m = qs.size();
  if (m == 0) return;
  Block next = block_of(qs[0]);
  for (std::size_t i = 0; i < m; ++i) {
    const Block block = next;
    // Pull the next query's three row offsets in early; resolving the
    // current one gives the prefetches time to land.
    if (i + 1 < m) {
      next = block_of(qs[i + 1]);
      for (const std::uint32_t* row : next.row) __builtin_prefetch(row);
    }
    out[i] = nearest_scan(qs[i], block);
  }
}

std::vector<SpatialGrid::Neighbor> SpatialGrid::neighbors_within(
    Vec2 q, double radius, std::uint32_t skip) const {
  std::vector<Neighbor> out;
  for_each_within(
      q, radius,
      [&](std::uint32_t idx, double d2) { out.push_back({idx, d2}); }, skip);
  std::sort(out.begin(), out.end(), [](const Neighbor& a, const Neighbor& b) {
    return a.dist2 < b.dist2 || (a.dist2 == b.dist2 && a.index < b.index);
  });
  return out;
}

std::uint32_t brute_force_nearest(std::span<const Vec2> sites,
                                  Vec2 q) noexcept {
  assert(!sites.empty());
  std::uint32_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::uint32_t i = 0; i < sites.size(); ++i) {
    const double d2 = torus_dist2(sites[i], q);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

}  // namespace geochoice::geometry
