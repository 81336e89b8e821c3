#include "geometry/spatial_grid.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <limits>

#if GEOCHOICE_AVX512_KERNELS
#include <immintrin.h>
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

// The batch kernels. kScalar resolves one query at a time: a scan of its
// 3x3 block of buckets into a (d², lowest index) key, then the walk over
// rings >= 2. kAvx512 resolves eight queries per step, one per lane, and
// hands the few lanes it cannot settle exactly to the same scalar code.
// Everything the AVX-512 kernel runs is inlined into its one target
// function, those scalar paths included, so no baseline code runs between
// its vector instructions and the vzeroupper at its exit.
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

  // One query through the scalar kernel.
  [[gnu::always_inline]] std::uint32_t resolve_one(Vec2 q) const noexcept {
    const Block block = block_of(q);
    return static_cast<std::uint32_t>(
        scan_outer_rings(block, scan_block_scalar(block)));
  }

  // One pass over the queries. The next query's block (three row offsets)
  // is computed and prefetched before the current one is resolved, which
  // gives the prefetches time to land.
  void scalar(std::span<const Vec2> qs,
              std::span<std::uint32_t> out) const noexcept {
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
      out[i] = static_cast<std::uint32_t>(
          scan_outer_rings(block, scan_block_scalar(block)));
    }
  }

#if GEOCHOICE_AVX512_KERNELS
  // Eight queries in [0,1)^2, one per lane, with each lane's 3x3 block as
  // scan_block_scalar's one sequence: step t of a lane reads entry
  // t + shift0 before end0, t + shift1 before end1 and t + shift2 before
  // end2. `inside` is false when a query lies outside [0,1)^2, which
  // block_of would wrap; the other fields are then unset.
  struct Group {
    __m512d qx, qy, edge;
    __m256i end0, end1, end2, shift0, shift1, shift2;
    bool inside;
  };

  // block_of's arithmetic in every lane, and the six gathers of the
  // lanes' row bounds.
  __attribute__((target("avx512f,avx512vl,avx512dq"), always_inline)) Group
  group_of(const Vec2* qs) const noexcept {
    Group g;
    const __m512d one = _mm512_set1_pd(1.0);
    const __m512d zero = _mm512_setzero_pd();
    // x0 y0 .. x3 y3 | x4 y4 .. x7 y7 -> x0 .. x7 and y0 .. y7.
    const __m512d q03 = _mm512_loadu_pd(&qs[0].x);
    const __m512d q47 = _mm512_loadu_pd(&qs[4].x);
    g.qx = _mm512_permutex2var_pd(
        q03, _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14), q47);
    g.qy = _mm512_permutex2var_pd(
        q03, _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15), q47);
    g.inside = (_mm512_cmp_pd_mask(g.qx, zero, _CMP_GE_OQ) &
                _mm512_cmp_pd_mask(g.qx, one, _CMP_LT_OQ) &
                _mm512_cmp_pd_mask(g.qy, zero, _CMP_GE_OQ) &
                _mm512_cmp_pd_mask(g.qy, one, _CMP_LT_OQ)) == 0xff;
    if (!g.inside) [[unlikely]] return g;

    const std::uint32_t k = grid.k_;
    const __m256i zero_i = _mm256_setzero_si256();
    const __m256i one_i = _mm256_set1_epi32(1);
    const __m256i last_i = _mm256_set1_epi32(static_cast<int>(k - 1));
    const __m512d k_d = _mm512_set1_pd(static_cast<double>(k));
    const __m512d tx = _mm512_mul_pd(g.qx, k_d);
    const __m512d ty = _mm512_mul_pd(g.qy, k_d);
    const __m256i bx = _mm256_min_epu32(_mm512_cvttpd_epu32(tx), last_i);
    const __m256i by = _mm256_min_epu32(_mm512_cvttpd_epu32(ty), last_i);
    const __m512d fx = _mm512_sub_pd(tx, _mm512_cvtepu32_pd(bx));
    const __m512d fy = _mm512_sub_pd(ty, _mm512_cvtepu32_pd(by));
    // block_of's min(a, b) is b < a ? b : a, which vminpd(b, a) computes.
    g.edge = _mm512_min_pd(_mm512_min_pd(_mm512_sub_pd(one, fy), fy),
                           _mm512_min_pd(_mm512_sub_pd(one, fx), fx));
    const __m256i up = _mm256_mask_mov_epi32(
        _mm256_sub_epi32(by, one_i), _mm256_cmpeq_epi32_mask(by, zero_i),
        last_i);
    const __m256i below = _mm256_add_epi32(by, one_i);
    const __m256i down = _mm256_mask_mov_epi32(
        below,
        _mm256_cmpeq_epi32_mask(below, _mm256_set1_epi32(static_cast<int>(k))),
        zero_i);
    // padded_slot(row, bx); row_start_[slot] and row_start_[slot + 3]
    // bound the row's three buckets.
    const __m256i stride = _mm256_set1_epi32(static_cast<int>(k + 2));
    const __m256i slot0 = _mm256_add_epi32(_mm256_mullo_epi32(up, stride), bx);
    const __m256i slot1 = _mm256_add_epi32(_mm256_mullo_epi32(by, stride), bx);
    const __m256i slot2 =
        _mm256_add_epi32(_mm256_mullo_epi32(down, stride), bx);
    const int* const rows = reinterpret_cast<const int*>(grid.row_start_.data());
    g.shift0 = _mm256_i32gather_epi32(rows, slot0, 4);
    const __m256i begin1 = _mm256_i32gather_epi32(rows, slot1, 4);
    const __m256i begin2 = _mm256_i32gather_epi32(rows, slot2, 4);
    g.end0 =
        _mm256_sub_epi32(_mm256_i32gather_epi32(rows + 3, slot0, 4), g.shift0);
    g.end1 = _mm256_add_epi32(
        g.end0,
        _mm256_sub_epi32(_mm256_i32gather_epi32(rows + 3, slot1, 4), begin1));
    g.end2 = _mm256_add_epi32(
        g.end1,
        _mm256_sub_epi32(_mm256_i32gather_epi32(rows + 3, slot2, 4), begin2));
    g.shift1 = _mm256_sub_epi32(begin1, g.end0);
    g.shift2 = _mm256_sub_epi32(begin2, g.end1);
    return g;
  }

  // Each lane runs its sequence, with masked gathers of x and y, to the end
  // of the longest of the eight, and keeps the first entry at its minimum
  // d². The ids are gathered once, at the end. A lane is settled when no
  // entry matched its running minimum exactly (so that entry is the only
  // one at its d², and the lowest index needs no comparison) and the exit
  // bound rules ring 2 out. The others go to the scalar code: a lane with a
  // tie scans its block again, a lane that must walk continues from its
  // vector minimum. A group with a query outside [0,1)^2 takes the scalar
  // kernel whole.
  __attribute__((target("avx512f,avx512vl,avx512dq"), always_inline)) void
  scan_group(const Group& g, const Vec2* qs,
             std::uint32_t* out) const noexcept {
    if (!g.inside) [[unlikely]] {
      for (int lane = 0; lane < 8; ++lane) out[lane] = resolve_one(qs[lane]);
      return;
    }
    const __m512d one = _mm512_set1_pd(1.0);
    const __m256i zero_i = _mm256_setzero_si256();
    const std::uint32_t steps = _mm512_reduce_max_epu32(
        _mm512_inserti64x4(_mm512_setzero_si512(), g.end2, 0));
    __m512d best = _mm512_set1_pd(std::numeric_limits<double>::infinity());
    __m256i best_entry = zero_i;
    __mmask8 tie = 0;
    for (std::uint32_t t = 0; t < steps; ++t) {
      const __m256i tv = _mm256_set1_epi32(static_cast<int>(t));
      const __mmask8 live = _mm256_cmpgt_epu32_mask(g.end2, tv);
      __m256i shift = _mm256_mask_mov_epi32(
          g.shift2, _mm256_cmpgt_epu32_mask(g.end1, tv), g.shift1);
      shift = _mm256_mask_mov_epi32(
          shift, _mm256_cmpgt_epu32_mask(g.end0, tv), g.shift0);
      const __m256i entry = _mm256_add_epi32(tv, shift);
      const __m512d x = _mm512_mask_i32gather_pd(g.qx, live, entry, xs, 8);
      const __m512d y = _mm512_mask_i32gather_pd(g.qy, live, entry, ys, 8);
      // entry_key's operations: sub, abs, min(1 - a, a), mul, add.
      const __m512d ax = _mm512_abs_pd(_mm512_sub_pd(x, g.qx));
      const __m512d ay = _mm512_abs_pd(_mm512_sub_pd(y, g.qy));
      const __m512d dx = _mm512_min_pd(_mm512_sub_pd(one, ax), ax);
      const __m512d dy = _mm512_min_pd(_mm512_sub_pd(one, ay), ay);
      const __m512d d2 =
          _mm512_add_pd(_mm512_mul_pd(dx, dx), _mm512_mul_pd(dy, dy));
      tie |= _mm512_mask_cmp_pd_mask(live, d2, best, _CMP_EQ_OQ);
      const __mmask8 nearer =
          _mm512_mask_cmp_pd_mask(live, d2, best, _CMP_LT_OQ);
      best = _mm512_mask_mov_pd(best, nearer, d2);
      best_entry = _mm256_mask_mov_epi32(best_entry, nearer, entry);
    }
    // An empty block leaves its lane at (+inf, 0), scan_block_scalar's
    // start.
    const __m256i id = _mm256_mmask_i32gather_epi32(
        zero_i, _mm256_cmpgt_epu32_mask(g.end2, zero_i), best_entry,
        reinterpret_cast<const int*>(ids), 4);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out), id);

    // done_before(2) of scan_outer_rings, in every lane.
    auto settled = static_cast<__mmask8>(~tie);
    if ((grid.k_ - 1) / 2 >= 2) {
      const __m512d exit = _mm512_mul_pd(_mm512_add_pd(one, g.edge),
                                         _mm512_set1_pd(exit_cell));
      settled &=
          _mm512_cmp_pd_mask(_mm512_mul_pd(exit, exit), best, _CMP_GT_OQ);
    }
    if (settled == 0xff) [[likely]] return;
    alignas(64) double best_d2[8];
    _mm512_store_pd(best_d2, best);
    for (unsigned open = ~settled & 0xffu; open != 0; open &= open - 1) {
      const int lane = __builtin_ctz(open);
      const Block block = block_of(qs[lane]);
      const Key start = (tie >> lane) & 1
                            ? scan_block_scalar(block)
                            : make_key(best_d2[lane], out[lane]);
      out[lane] = static_cast<std::uint32_t>(scan_outer_rings(block, start));
    }
  }

  // Groups of eight; the next group's row bounds are gathered before the
  // current group is scanned, so their loads overlap its scan. The last
  // m mod 8 queries take the scalar kernel.
  __attribute__((target("avx512f,avx512vl,avx512dq"), flatten)) void avx512(
      std::span<const Vec2> qs, std::span<std::uint32_t> out) const noexcept {
    const std::size_t groups = qs.size() / 8;
    if (groups > 0) {
      Group next = group_of(qs.data());
      for (std::size_t i = 0; i < groups; ++i) {
        const Group g = next;
        if (i + 1 < groups) next = group_of(qs.data() + 8 * (i + 1));
        scan_group(g, qs.data() + 8 * i, out.data() + 8 * i);
      }
    }
    for (std::size_t i = 8 * groups; i < qs.size(); ++i) {
      out[i] = resolve_one(qs[i]);
    }
    // Hand the baseline caller clean upper register halves, whatever the
    // compiler's own vzeroupper placement does.
    _mm256_zeroupper();
  }
#endif
};

void SpatialGrid::nearest_batch(std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const {
  resolve_batch(batch_kernel(), qs, out);
}

void SpatialGrid::nearest_batch(Kernel kernel, std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const {
  require_kernel(kernel, "SpatialGrid::nearest_batch");
  resolve_batch(kernel, qs, out);
}

void SpatialGrid::resolve_batch(Kernel kernel, std::span<const Vec2> qs,
                                std::span<std::uint32_t> out) const noexcept {
  assert(qs.size() == out.size());
  assert(!sites_.empty());
  if (qs.empty()) return;
  const Kernels kernels(*this);
#if GEOCHOICE_AVX512_KERNELS
  // The gathers take signed 32-bit indices.
  constexpr std::size_t kMaxIndex = std::numeric_limits<std::int32_t>::max();
  if (kernel == Kernel::kAvx512 && xs_.size() <= kMaxIndex &&
      row_start_.size() <= kMaxIndex) {
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
