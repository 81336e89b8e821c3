#include "geometry/ring_arithmetic.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <stdexcept>

#if GEOCHOICE_AVX512_KERNELS
#include <immintrin.h>
#endif

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

namespace {

// The owner of x from `end`, the index just past the positions <= x in x's
// bucket: the position before it, or the last one when nothing precedes x.
[[gnu::always_inline]] inline std::uint32_t owner_before(
    std::uint32_t end, std::uint32_t last) noexcept {
  return end == 0 ? last : end - 1;
}

// `end` for a bucket [lo, hi) of more than kCountWidth positions.
[[gnu::always_inline]] inline std::uint32_t bucket_upper_bound(
    const double* pos, std::uint32_t lo, std::uint32_t hi, double x) noexcept {
  return static_cast<std::uint32_t>(std::upper_bound(pos + lo, pos + hi, x) -
                                    pos);
}

void owner_batch_scalar(const double* pos, const std::uint32_t* dir,
                        std::uint32_t buckets, std::span<const double> xs,
                        std::span<std::uint32_t> out) noexcept {
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
    // Pass 2: the positions <= x in x's sorted bucket are a prefix of it.
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
        end = bucket_upper_bound(pos, lo, hi, x[q]);
      }
      o[q] = owner_before(end, last);
    }
  }
}

#if GEOCHOICE_AVX512_KERNELS
// Eight queries per step, one per lane. The steps are independent, so the
// out-of-order core overlaps the gathers of consecutive steps, which is the
// prefetching the scalar kernel does by hand.
__attribute__((target("avx512f,avx512vl,avx512dq"))) void owner_batch_avx512(
    const double* pos, const std::uint32_t* dir, std::uint32_t buckets,
    std::span<const double> xs, std::span<std::uint32_t> out) noexcept {
  const std::uint32_t last = buckets - 1;
  const __m512d scale = _mm512_set1_pd(static_cast<double>(buckets));
  const __m256i last_v = _mm256_set1_epi32(static_cast<int>(last));
  const __m256i one = _mm256_set1_epi32(1);
  const __m256i zero = _mm256_setzero_si256();
  for (std::size_t q = 0; q < xs.size(); q += 8) {
    const std::size_t left = xs.size() - q;
    const auto live =
        static_cast<__mmask8>(left >= 8 ? 0xff : (1u << left) - 1);
    const __m512d x = _mm512_maskz_loadu_pd(live, xs.data() + q);
    // ring_bucket's arithmetic: truncate x * buckets, clamp to the last.
    const __m256i b = _mm256_min_epu32(
        _mm512_cvttpd_epu32(_mm512_mul_pd(x, scale)), last_v);
    // dir[b] and dir[b + 1] in one 64-bit lane.
    const __m512i bounds = _mm512_mask_i32gather_epi64(
        _mm512_setzero_si512(), live, b, dir, 4);
    const __m256i lo = _mm512_cvtepi64_epi32(bounds);
    const __m256i hi = _mm512_cvtepi64_epi32(_mm512_srli_epi64(bounds, 32));
    const __m256i size = _mm256_sub_epi32(hi, lo);
    // The scalar kernel's count over the bucket's first four positions:
    // gather k reads position lo + k only in lanes whose bucket has more
    // than k positions.
    __m256i end = lo;
    for (std::uint32_t k = 0; k < kCountWidth; ++k) {
      const __mmask8 in = _mm256_mask_cmpgt_epu32_mask(
          live, size, _mm256_set1_epi32(static_cast<int>(k)));
      const __m512d p = _mm512_mask_i32gather_pd(
          x, in, _mm256_add_epi32(lo, _mm256_set1_epi32(static_cast<int>(k))),
          pos, 8);
      end = _mm256_mask_add_epi32(
          end, _mm512_mask_cmp_pd_mask(in, p, x, _CMP_LE_OQ), end, one);
    }
    const __m256i owner = _mm256_mask_mov_epi32(
        _mm256_sub_epi32(end, one), _mm256_cmpeq_epi32_mask(end, zero),
        last_v);
    _mm256_mask_storeu_epi32(out.data() + q, live, owner);
    // Buckets of more than four positions, as the scalar kernel does them.
    for (unsigned big = _mm256_mask_cmpgt_epu32_mask(
             live, size,
             _mm256_set1_epi32(static_cast<int>(kCountWidth)));
         big != 0; big &= big - 1) {
      const std::size_t i = q + static_cast<std::size_t>(__builtin_ctz(big));
      const std::uint32_t bucket = ring_bucket(xs[i], buckets);
      out[i] = owner_before(
          bucket_upper_bound(pos, dir[bucket], dir[bucket + 1], xs[i]), last);
    }
  }
  // Hand the baseline caller clean upper register halves.
  _mm256_zeroupper();
}
#endif

// Picks the kernel. The gathers take signed 32-bit indices, so a ring of
// 2^31 or more positions stays on the scalar kernel.
void owner_batch(Kernel kernel, std::span<const double> sorted_positions,
                 std::span<const std::uint32_t> directory,
                 std::span<const double> xs,
                 std::span<std::uint32_t> out) noexcept {
  assert(!sorted_positions.empty());
  assert(directory.size() == sorted_positions.size() + 1);
  assert(xs.size() == out.size());
  const auto buckets = static_cast<std::uint32_t>(sorted_positions.size());
#if GEOCHOICE_AVX512_KERNELS
  if (kernel == Kernel::kAvx512 &&
      sorted_positions.size() <= std::numeric_limits<std::int32_t>::max()) {
    owner_batch_avx512(sorted_positions.data(), directory.data(), buckets, xs,
                       out);
    return;
  }
#endif
  owner_batch_scalar(sorted_positions.data(), directory.data(), buckets, xs,
                     out);
}

}  // namespace

void ring_owner_batch(std::span<const double> sorted_positions,
                      std::span<const std::uint32_t> directory,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept {
  owner_batch(batch_kernel(), sorted_positions, directory, xs, out);
}

void ring_owner_batch(Kernel kernel, std::span<const double> sorted_positions,
                      std::span<const std::uint32_t> directory,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out) {
  require_kernel(kernel, "ring_owner_batch");
  owner_batch(kernel, sorted_positions, directory, xs, out);
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
