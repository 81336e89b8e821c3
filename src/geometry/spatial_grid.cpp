#include "geometry/spatial_grid.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define GEOCHOICE_GRID_AVX512 1
#include <immintrin.h>
#else
#define GEOCHOICE_GRID_AVX512 0
#endif

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

// The batch kernels. Both run batch_loop: per query, a scan of its 3x3
// block of buckets into a (d², lowest index) key, then the walk over
// rings >= 2; they differ only in the block scan. Everything the AVX-512
// kernel runs is inlined into its one target function, ring walk and
// overflow rows included, so no baseline code runs between its vector
// instructions and the vzeroupper at its exit.
struct SpatialGrid::Kernels {
  /// A query, wrapped into [0,1)^2, and its 3x3 block of buckets as three
  /// padded-row ranges: for rows by-1, by, by+1, row[j] points at the
  /// offsets of padded columns bx..bx+3, so [row[j][0], row[j][3]) holds
  /// bucket columns bx-1, bx, bx+1, wrap included.
  struct Block {
    Vec2 q;
    std::uint32_t bx, by;
    /// min(fx, 1 - fx, fy, 1 - fy) for q's fractional position (fx, fy)
    /// in its bucket: how far, in buckets, the block reaches past q.
    double edge;
    const std::uint32_t* row[3];
  };

  explicit Kernels(const SpatialGrid& g) noexcept
      : grid(g),
        xs(g.xs_.data()),
        ys(g.ys_.data()),
        ids(g.ids_.data()),
        exit_cell(g.cell_ * (1.0 - static_cast<double>(g.k_) * 0x1p-48)) {}

  const SpatialGrid& grid;
  const double* xs;
  const double* ys;
  const std::uint32_t* ids;
  /// One bucket width, shaved (see nearest_batch in the header).
  double exit_cell;

  [[gnu::always_inline]] Block block_of(Vec2 q) const noexcept {
    if (!(q.x >= 0.0 && q.x < 1.0 && q.y >= 0.0 && q.y < 1.0)) q = wrap01(q);
    const std::uint32_t k = grid.k_;
    const double tx = q.x * static_cast<double>(k);
    const double ty = q.y * static_cast<double>(k);
    // bucket_of's arithmetic, so a query and the sites share bucket edges.
    const std::uint32_t bx = std::min(static_cast<std::uint32_t>(tx), k - 1);
    const std::uint32_t by = std::min(static_cast<std::uint32_t>(ty), k - 1);
    // By value: std::min's references made GCC branch on each compare.
    auto min = [](double a, double b) { return b < a ? b : a; };
    const double fx = tx - bx;
    const double fy = ty - by;
    const std::uint32_t up = by == 0 ? k - 1 : by - 1;
    const std::uint32_t down = by + 1 == k ? 0 : by + 1;
    const std::uint32_t* const rows = grid.row_start_.data();
    return {q,
            bx,
            by,
            min(min(fx, 1.0 - fx), min(fy, 1.0 - fy)),
            {rows + grid.padded_slot(up, bx), rows + grid.padded_slot(by, bx),
             rows + grid.padded_slot(down, bx)}};
  }

  // Equal to torus_dist2 bit for bit on [0,1): min(|d|, 1 - |d|) is
  // |torus_delta| (Sterbenz: 1 - |d| is exact for |d| >= 1/2), and the
  // squares drop the sign.
  [[gnu::always_inline]] Key entry_key(std::uint32_t i, Vec2 q) const noexcept {
    const double ax = std::fabs(xs[i] - q.x);
    const double ay = std::fabs(ys[i] - q.y);
    const double dx = std::min(ax, 1.0 - ax);
    const double dy = std::min(ay, 1.0 - ay);
    return make_key(dx * dx + dy * dy, ids[i]);
  }

  [[gnu::always_inline]] Key scan_range(std::uint32_t begin, std::uint32_t end,
                                        Vec2 q, Key best) const noexcept {
    for (std::uint32_t i = begin; i < end; ++i) {
      best = std::min(best, entry_key(i, q));
    }
    return best;
  }

  // Rings >= 2, while the exact exit bound of the rings scanned so far
  // does not rule a nearer (or equal, lower-index) site out.
  [[gnu::always_inline]] Key scan_outer_rings(const Block& b,
                                              Key best) const noexcept {
    const std::uint32_t max_ring = (grid.k_ - 1) / 2;
    auto done_before = [&](std::uint32_t ring) {
      const double exit =
          (static_cast<double>(ring - 1) + b.edge) * exit_cell;
      return exit * exit > key_dist2(best);
    };
    // Most queries stop here, before the walk's set-up.
    if (max_ring < 2 || done_before(2)) return best;
    std::uint32_t ring = 2;
    do {
      grid.for_each_ring_range(b.bx, b.by, ring,
                               [&](std::uint32_t begin, std::uint32_t end) {
                                 best = scan_range(begin, end, b.q, best);
                               });
    } while (++ring <= max_ring && !done_before(ring));
    return best;
  }

  // The three ranges as one sequence t, so the only data-dependent branch
  // is the loop's own exit. Entry of step t is t + shift, with unsigned
  // wraparound in the shifts.
  [[gnu::always_inline]] Key scan_block_scalar(const Block& b) const noexcept {
    const std::uint32_t* const r0 = b.row[0];
    const std::uint32_t* const r1 = b.row[1];
    const std::uint32_t* const r2 = b.row[2];
    const std::uint32_t end0 = r0[3] - r0[0];
    const std::uint32_t end1 = end0 + (r1[3] - r1[0]);
    const std::uint32_t end2 = end1 + (r2[3] - r2[0]);
    const std::uint32_t shift0 = r0[0];
    const std::uint32_t shift1 = r1[0] - end0;
    const std::uint32_t shift2 = r2[0] - end1;
    Key best = make_key(std::numeric_limits<double>::infinity(), 0);
    for (std::uint32_t t = 0; t < end2; ++t) {
      const std::uint32_t shift =
          t < end0 ? shift0 : (t < end1 ? shift1 : shift2);
      best = std::min(best, entry_key(t + shift, b.q));
    }
    return best;
  }

#if GEOCHOICE_GRID_AVX512
  // d² from q to the `live` entries of one range starting at `begin`; +inf
  // in the other lanes.
  __attribute__((target("avx512f,avx512vl,avx512dq"), always_inline)) __m512d
  range_d2(std::uint32_t begin, __mmask8 live, __m512d qx,
           __m512d qy) const noexcept {
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d ax = _mm512_abs_pd(
        _mm512_sub_pd(_mm512_maskz_loadu_pd(live, xs + begin), qx));
    const __m512d ay = _mm512_abs_pd(
        _mm512_sub_pd(_mm512_maskz_loadu_pd(live, ys + begin), qy));
    // min(1 - a, a) picks exactly what std::min(a, 1 - a) picks.
    const __m512d dx = _mm512_min_pd(_mm512_sub_pd(one, ax), ax);
    const __m512d dy = _mm512_min_pd(_mm512_sub_pd(one, ay), ay);
    return _mm512_mask_blend_pd(
        live, _mm512_set1_pd(std::numeric_limits<double>::infinity()),
        _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy)));
  }

  // Not always_inline: a baseline caller could not take it. The kernel's
  // flatten pulls it in.
  __attribute__((target("avx512f,avx512vl,avx512dq"))) Key scan_block_avx512(
      const Block& b) const noexcept {
    const std::uint32_t begin[3] = {b.row[0][0], b.row[1][0], b.row[2][0]};
    const std::uint32_t len0 = b.row[0][3] - begin[0];
    const std::uint32_t len1 = b.row[1][3] - begin[1];
    const std::uint32_t len2 = b.row[2][3] - begin[2];
    auto lanes = [](std::uint32_t len) {
      return static_cast<__mmask8>(len <= 8 ? (1u << len) - 1 : 0);
    };
    Key best = make_key(std::numeric_limits<double>::infinity(), 0);
    if (len0 > 8) best = scan_range(begin[0], begin[0] + len0, b.q, best);
    if (len1 > 8) best = scan_range(begin[1], begin[1] + len1, b.q, best);
    if (len2 > 8) best = scan_range(begin[2], begin[2] + len2, b.q, best);
    const __mmask8 live0 = lanes(len0), live1 = lanes(len1),
                   live2 = lanes(len2);
    const __m512d qx = _mm512_set1_pd(b.q.x);
    const __m512d qy = _mm512_set1_pd(b.q.y);
    const __m256i id0 = _mm256_maskz_loadu_epi32(live0, ids + begin[0]);
    const __m256i id1 = _mm256_maskz_loadu_epi32(live1, ids + begin[1]);
    const __m256i id2 = _mm256_maskz_loadu_epi32(live2, ids + begin[2]);
    const __m512d d0 = range_d2(begin[0], live0, qx, qy);
    const __m512d d1 = range_d2(begin[1], live1, qx, qy);
    const __m512d d2 = range_d2(begin[2], live2, qx, qy);
    const double min_d2 =
        _mm512_reduce_min_pd(_mm512_min_pd(d0, _mm512_min_pd(d1, d2)));
    const __m512d at_min = _mm512_set1_pd(min_d2);
    // The site index of every lane at the minimum, all ones elsewhere; the
    // ids were loaded with the coordinates, off this dependency chain.
    const __m256i none = _mm256_set1_epi32(-1);
    __m256i c = _mm256_mask_mov_epi32(
        none, _mm512_mask_cmp_pd_mask(live0, d0, at_min, _CMP_EQ_OQ), id0);
    c = _mm256_min_epu32(
        c, _mm256_mask_mov_epi32(
               none, _mm512_mask_cmp_pd_mask(live1, d1, at_min, _CMP_EQ_OQ),
               id1));
    c = _mm256_min_epu32(
        c, _mm256_mask_mov_epi32(
               none, _mm512_mask_cmp_pd_mask(live2, d2, at_min, _CMP_EQ_OQ),
               id2));
    __m128i h = _mm_min_epu32(_mm256_castsi256_si128(c),
                              _mm256_extracti128_si256(c, 1));
    h = _mm_min_epu32(h, _mm_shuffle_epi32(h, _MM_SHUFFLE(1, 0, 3, 2)));
    h = _mm_min_epu32(h, _mm_shuffle_epi32(h, _MM_SHUFFLE(2, 3, 0, 1)));
    const auto idx = static_cast<std::uint32_t>(_mm_cvtsi128_si32(h));
    return std::min(best, make_key(min_d2, idx));
  }
#endif

  // One pass over the queries. The next query's block (three row offsets)
  // is computed and prefetched before the current one is resolved, which
  // gives the prefetches time to land.
  template <bool kAvx512>
  [[gnu::always_inline]] void batch_loop(
      std::span<const Vec2> qs, std::span<std::uint32_t> out) const noexcept {
    const std::size_t m = qs.size();
    Block next = block_of(qs[0]);
    for (std::size_t i = 0; i < m; ++i) {
      const Block block = next;
      if (i + 1 < m) {
        next = block_of(qs[i + 1]);
        // Constant indices keep the block in registers.
        __builtin_prefetch(next.row[0]);
        __builtin_prefetch(next.row[1]);
        __builtin_prefetch(next.row[2]);
      }
      Key best;
#if GEOCHOICE_GRID_AVX512
      if constexpr (kAvx512) {
        best = scan_block_avx512(block);
      } else {
        best = scan_block_scalar(block);
      }
#else
      best = scan_block_scalar(block);
#endif
      out[i] = static_cast<std::uint32_t>(scan_outer_rings(block, best));
    }
  }

  void scalar(std::span<const Vec2> qs,
              std::span<std::uint32_t> out) const noexcept {
    batch_loop<false>(qs, out);
  }

#if GEOCHOICE_GRID_AVX512
  __attribute__((target("avx512f,avx512vl,avx512dq"), flatten)) void avx512(
      std::span<const Vec2> qs, std::span<std::uint32_t> out) const noexcept {
    batch_loop<true>(qs, out);
    // Hand the baseline caller clean upper register halves, whatever the
    // compiler's own vzeroupper placement does.
    _mm256_zeroupper();
  }
#endif
};

SpatialGrid::Kernel SpatialGrid::batch_kernel() noexcept {
  static const Kernel kernel = [] {
#if GEOCHOICE_GRID_AVX512
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512vl") &&
        __builtin_cpu_supports("avx512dq")) {
      return Kernel::kAvx512;
    }
#endif
    return Kernel::kScalar;
  }();
  return kernel;
}

void SpatialGrid::nearest_batch(std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const {
  nearest_batch(batch_kernel(), qs, out);
}

void SpatialGrid::nearest_batch(Kernel kernel, std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const {
  assert(qs.size() == out.size());
  assert(!sites_.empty());
  if (kernel == Kernel::kAvx512 && batch_kernel() != Kernel::kAvx512) {
    throw std::invalid_argument(
        "SpatialGrid::nearest_batch: this CPU lacks AVX-512 F/VL/DQ");
  }
  if (qs.empty()) return;
  const Kernels kernels(*this);
#if GEOCHOICE_GRID_AVX512
  if (kernel == Kernel::kAvx512) {
    kernels.avx512(qs, out);
    return;
  }
#endif
  kernels.scalar(qs, out);
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
