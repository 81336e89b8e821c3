// spatial_grid.hpp — uniform bucket grid over the unit torus.
//
// The torus experiments need two query kinds:
//   * nearest(q)      — index of the site closest to q in torus metric
//                       (the Voronoi owner lookup; the hot path of the
//                       2-D d-choice process), and
//   * for_each_within — enumerate sites within a given torus radius (used by
//                       the Voronoi cell construction and the Lemma 8 sector
//                       predicate).
//
// With n uniformly random sites and ~1 site per bucket, nearest() is O(1)
// expected: scan the query's bucket ring by ring, pruning once the ring's
// minimum possible distance exceeds the best distance found.
//
// Storage is one bucket layout, row by row. Each row is padded with a ghost
// copy of its last column before column 0 and a ghost copy of column 0
// after its last column, so the three buckets c-1, c, c+1 of a row are one
// contiguous range of entries for every column c, wrap included. An entry
// is a site's x, y and index, kept in three parallel arrays: the scalar
// batch kernel sweeps a range contiguously, the AVX-512 one gathers from
// them.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/owner_kernel.hpp"
#include "geometry/point.hpp"

namespace geochoice::geometry {

class SpatialGrid {
 public:
  /// Build a grid over `sites` (coordinates in [0,1)). `buckets_per_axis`
  /// defaults to ~sqrt(n) so the expected occupancy is one site per bucket.
  explicit SpatialGrid(std::span<const Vec2> sites,
                       std::uint32_t buckets_per_axis = 0);

  [[nodiscard]] std::size_t site_count() const noexcept {
    return sites_.size();
  }
  [[nodiscard]] std::span<const Vec2> sites() const noexcept {
    return sites_;
  }
  [[nodiscard]] std::uint32_t buckets_per_axis() const noexcept {
    return k_;
  }

  /// Index of the nearest site to `q` (torus metric); ties go to the lowest
  /// index. Requires >= 1 site.
  [[nodiscard]] std::uint32_t nearest(Vec2 q) const noexcept;

  /// Distance-squared to the nearest site.
  [[nodiscard]] double nearest_dist2(Vec2 q) const noexcept;

  /// Batched nearest-site resolution: `out[i] = nearest(qs[i])` for every
  /// query, resolved in arrival order. Requires qs.size() == out.size().
  /// Queries should lie in [0,1)^2 (the process engines' domain); one
  /// compare per query sends any other through wrap01 first.
  ///
  /// Each query scans the 3x3 block of buckets around its own (three
  /// padded-row ranges, see the class comment) into a (d², lowest index)
  /// minimum, then walks ring 2 and further out only while a site outside
  /// the scanned rings could still be as near as the best one. That exit
  /// bound is exact: a site outside the (2r - 1)^2 block lies at least
  /// (r - 1 + min(fx, 1 - fx, fy, 1 - fy)) bucket widths from q, where
  /// (fx, fy) is q's fractional position in its bucket. It is shaved by a
  /// relative k * 2^-48 (2^-40 at n = 2^16): a site's bucket comes from
  /// its rounded x * k, which can move a bucket edge by up to ~k * 2^-52
  /// buckets, and the bound must never exceed a true distance. For k <= 3
  /// the block is the whole torus and no ring is walked.
  ///
  /// Two kernels, chosen by batch_kernel() (owner_kernel.hpp), once per
  /// process from the CPU:
  /// * kAvx512 (AVX-512 F, VL and DQ) resolves eight queries per step, one
  ///   per lane. It gathers each query's three padded-row bounds from the
  ///   row offsets, runs every lane's block as one sequence of entries to
  ///   the end of the longest of the eight, with masked gathers of x and y,
  ///   keeps each lane's first entry at its minimum d², gathers the eight
  ///   site ids once at the end, and tests the ring-2 exit bound in vector
  ///   form. A lane whose minimum was matched exactly by another entry
  ///   (a tie, whose lowest index the vector minimum cannot pick) scans
  ///   its block again in scalar; a lane that must walk continues from its
  ///   vector minimum in scalar; a group of eight with a query outside
  ///   [0,1)^2 and the last m mod 8 queries take the scalar kernel. Grids
  ///   of 2^31 or more entries or row offsets, past the gathers' signed
  ///   32-bit indices, take the scalar kernel.
  /// * kScalar, the reference and the kernel on every other CPU, walks a
  ///   query's three ranges as one branch-free sequence, with the next
  ///   query's row offsets prefetched.
  /// Both compute d² with nearest()'s operations (sub, abs, min(a, 1 - a),
  /// square, add) and the exit bound with the same operations, so each
  /// result equals nearest() bit for bit. spatial_grid.cpp is built with
  /// -ffp-contract=off: GCC would otherwise fuse the square and add into an
  /// FMA under the AVX-512 target, intrinsics included, and the batched
  /// engine would no longer be bit-identical to run_process.
  void nearest_batch(std::span<const Vec2> qs,
                     std::span<std::uint32_t> out) const;

  /// nearest_batch through a named kernel, so tests can compare both on
  /// one host. Throws std::invalid_argument for kAvx512 when
  /// batch_kernel() is kScalar.
  void nearest_batch(Kernel kernel, std::span<const Vec2> qs,
                     std::span<std::uint32_t> out) const;

  /// Invoke `fn(site_index, dist2)` for every site within torus distance
  /// `radius` of `q` (inclusive). Visits each site exactly once; order is
  /// unspecified. `skip` (if not UINT32_MAX) is excluded — callers pass the
  /// center site itself.
  template <typename Fn>
  void for_each_within(Vec2 q, double radius, Fn&& fn,
                       std::uint32_t skip = kNoSkip) const {
    const double r2 = radius * radius;
    // Enough rings to cover `radius` plus one safety ring for bucket
    // granularity; never more than covers the whole torus.
    const std::uint32_t max_ring = ring_cover(radius);
    // A ring that wraps past half the grid would revisit buckets, and
    // visit_ring skips such rings entirely — which would silently drop
    // sites. On small grids (2·max_ring >= k) just scan everything; the
    // whole grid is at most a few buckets there anyway.
    if (2 * static_cast<std::uint64_t>(max_ring) >= k_) {
      for (std::uint32_t idx = 0; idx < sites_.size(); ++idx) {
        if (idx == skip) continue;
        const double d2 = torus_dist2(sites_[idx], q);
        if (d2 <= r2) fn(idx, d2);
      }
      return;
    }
    for (std::uint32_t ring = 0; ring <= max_ring; ++ring) {
      visit_ring(q, ring, [&](std::uint32_t idx) {
        if (idx == skip) return;
        const double d2 = torus_dist2(sites_[idx], q);
        if (d2 <= r2) fn(idx, d2);
      });
    }
  }

  /// Collect (index, dist2) of all sites within `radius`, sorted by
  /// distance. Convenience wrapper used by the Voronoi builder.
  struct Neighbor {
    std::uint32_t index;
    double dist2;
  };
  [[nodiscard]] std::vector<Neighbor> neighbors_within(
      Vec2 q, double radius, std::uint32_t skip = kNoSkip) const;

  static constexpr std::uint32_t kNoSkip = 0xffffffffu;

 private:
  [[nodiscard]] std::uint32_t bucket_of(double coord) const noexcept;
  [[nodiscard]] std::uint32_t ring_cover(double radius) const noexcept;

  /// The batch kernels and the code they share (spatial_grid.cpp).
  struct Kernels;
  void resolve_batch(Kernel kernel, std::span<const Vec2> qs,
                     std::span<std::uint32_t> out) const noexcept;

  /// First entry of the padded bucket at padded column `pc` (bucket column
  /// pc - 1, wrapped) of row `row`; the bucket ends where pc + 1 starts.
  [[nodiscard]] std::size_t padded_slot(std::size_t row,
                                        std::size_t pc) const noexcept {
    return row * (static_cast<std::size_t>(k_) + 2) + pc;
  }

  /// Call `fn(begin, end)` with the entry range of every bucket in the
  /// Chebyshev ring at distance `ring` buckets around bucket (bx, by)
  /// (ring 0 = the bucket itself). Rings that wrap past half the grid would
  /// revisit buckets; callers never request them, but they are skipped.
  template <typename Fn>
  void for_each_ring_range(std::int64_t bx, std::int64_t by,
                           std::uint32_t ring, Fn&& fn) const {
    const std::int64_t k = k_;
    auto bucket = [&](std::int64_t cx, std::int64_t cy) {
      // |offset| <= ring < k, so one conditional add/subtract wraps.
      cx = cx < 0 ? cx + k : (cx >= k ? cx - k : cx);
      cy = cy < 0 ? cy + k : (cy >= k ? cy - k : cy);
      const std::size_t p = padded_slot(static_cast<std::size_t>(cy),
                                        static_cast<std::size_t>(cx) + 1);
      fn(row_start_[p], row_start_[p + 1]);
    };
    const std::int64_t r = ring;
    if (r == 0) {
      bucket(bx, by);
      return;
    }
    if (2 * r >= k) return;
    for (std::int64_t dx = -r; dx <= r; ++dx) {
      bucket(bx + dx, by - r);
      bucket(bx + dx, by + r);
    }
    for (std::int64_t dy = -r + 1; dy <= r - 1; ++dy) {
      bucket(bx - r, by + dy);
      bucket(bx + r, by + dy);
    }
  }

  /// Visit every site stored in the Chebyshev ring at distance `ring`
  /// buckets around q's bucket (ring 0 = the bucket itself).
  template <typename Fn>
  void visit_ring(Vec2 q, std::uint32_t ring, Fn&& fn) const {
    for_each_ring_range(bucket_of(q.x), bucket_of(q.y), ring,
                        [&](std::uint32_t begin, std::uint32_t end) {
                          for (std::uint32_t i = begin; i < end; ++i) {
                            fn(ids_[i]);
                          }
                        });
  }

  /// Minimum torus distance from q to any point of the ring-`ring` buckets
  /// (0 when ring <= 1 since q's own ring-0 bucket touches ring 1).
  [[nodiscard]] double ring_min_dist(Vec2 q, std::uint32_t ring) const noexcept;

  std::vector<Vec2> sites_;
  std::uint32_t k_ = 1;   // buckets per axis
  double cell_ = 1.0;     // bucket width = 1/k
  // Padded rows: row r has padded columns 0..k_+1, where padded column p
  // holds bucket column (p - 1) mod k_. row_start_[padded_slot(r, p)] is
  // the first entry of that bucket; size k_ * (k_ + 2) + 1.
  std::vector<std::uint32_t> row_start_;
  // Entries (ghost copies included), contiguous per padded bucket.
  std::vector<double> xs_;
  std::vector<double> ys_;
  std::vector<std::uint32_t> ids_;  // site index of each entry
};

/// O(n) reference nearest-neighbor for testing the grid.
[[nodiscard]] std::uint32_t brute_force_nearest(std::span<const Vec2> sites,
                                                Vec2 q) noexcept;

}  // namespace geochoice::geometry
