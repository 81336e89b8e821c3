// ring_arithmetic.hpp — arithmetic on the unit-circumference circle.
//
// The paper's 1-D setting (Section 2): n server points on a circle of
// circumference 1 induce n arcs; the bin of a location is the server whose
// arc contains it. geochoice adopts the consistent-hashing convention that
// server i owns the counterclockwise (successor-direction) arc
// [pos_i, pos_{i+1}): a location x belongs to its *predecessor* server.
// Lemma 3/4's "counterclockwise arc from the jth point" is exactly this arc.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/owner_kernel.hpp"
#include "geometry/point.hpp"

namespace geochoice::geometry {

/// Counterclockwise gap from `from` to `to` on the unit circle, in [0, 1).
[[nodiscard]] inline double ring_gap(double from, double to) noexcept {
  return wrap01(to - from);
}

/// Shortest (undirected) circular distance between two ring positions.
[[nodiscard]] inline double ring_distance(double a, double b) noexcept {
  const double g = ring_gap(a, b);
  return g <= 0.5 ? g : 1.0 - g;
}

/// Index of the owner of location `x` among *sorted* ring positions:
/// the greatest position <= x, wrapping to the last position when x precedes
/// all of them. O(log n) binary search; the reference for ring_owner_batch.
[[nodiscard]] std::size_t ring_owner(std::span<const double> sorted_positions,
                                     double x) noexcept;

/// Bucket of a location x in [0, 1] when the circle is cut into `buckets`
/// equal arcs ~[b/buckets, (b+1)/buckets): min(buckets - 1,
/// floor(x * buckets)). Monotone in x, so the buckets of sorted positions
/// are contiguous index ranges; x -> 1.0 rounding (and x == 1.0 itself)
/// lands in the last bucket.
[[nodiscard]] inline std::uint32_t ring_bucket(double x,
                                               std::uint32_t buckets) noexcept {
  const auto b = static_cast<std::uint32_t>(x * static_cast<double>(buckets));
  return b >= buckets ? buckets - 1 : b;
}

/// Sorts ring positions in place and returns their bucket directory.
///
/// The n positions are bucket-sorted on ring_bucket(x, n), one expected
/// position per bucket for a uniform ring, then each bucket of two or more
/// is sorted with std::sort. The bucket is monotone in x, so the result is
/// exactly sorted for any input and equals std::sort's bit for bit;
/// clustered input degrades to O(n log n).
/// The only allocation that outlives the call is the directory: n + 1
/// entries, dir[b] = index of the first position in a bucket >= b, so
/// bucket b holds the positions [dir[b], dir[b + 1]).
///
/// Throws std::invalid_argument for an empty vector or a position outside
/// [0, 1) (NaN included).
std::vector<std::uint32_t> sort_ring_positions(std::vector<double>& positions);

/// Batched owner resolution: `out[i] = ring_owner(sorted_positions, xs[i])`
/// for every query, through the `directory` that sort_ring_positions
/// returned for these positions. Queries must lie in [0, 1]; 1.0 lands in
/// the last bucket. Requires xs.size() == out.size().
///
/// Positions in an earlier bucket than x are all below it and positions in
/// a later one all above, so the owner only needs a count of the positions
/// <= x inside x's own bucket [dir[b], dir[b + 1]): the owner is the
/// position just before the counted prefix ends, or the last position when
/// nothing precedes x. Buckets of up to four positions are counted without
/// a branch; larger ones (about 0.4% of a uniform ring's buckets) take
/// std::upper_bound. Both kernels compute ring_bucket's product and
/// truncation and the same `position <= x` comparisons, so their owners
/// equal ring_owner's bit for bit.
///
/// Two kernels, chosen by batch_kernel() (owner_kernel.hpp), once per
/// process from the CPU:
/// * kAvx512 (AVX-512 F, VL and DQ) resolves eight queries per step, one
///   per lane: each bucket by ring_bucket's arithmetic, dir[b] and
///   dir[b + 1] by two 32-bit gathers, the bucket's first four positions
///   by masked 64-bit gathers (a lane loads position k only when its bucket
///   has more than k), and the count by masked compares. Lanes whose bucket
///   holds more than four positions are redone by the scalar kernel's
///   upper_bound. A length that is not a multiple of 8 ends on a masked
///   step. Rings of 2^31 or more positions, past the gathers' signed 32-bit
///   indices, take the scalar kernel.
/// * kScalar, the reference and the kernel on every other CPU, works in
///   chunks of 2048 queries: one pass computes each query's bucket and
///   prefetches its directory entry, a second prefetches ahead into the
///   positions and counts each query's bucket.
void ring_owner_batch(std::span<const double> sorted_positions,
                      std::span<const std::uint32_t> directory,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out) noexcept;

/// ring_owner_batch through a named kernel, so tests can compare both on
/// one host. Throws std::invalid_argument for kAvx512 when batch_kernel()
/// is kScalar.
void ring_owner_batch(Kernel kernel, std::span<const double> sorted_positions,
                      std::span<const std::uint32_t> directory,
                      std::span<const double> xs,
                      std::span<std::uint32_t> out);

/// Arc lengths induced by *sorted* positions: `result[i]` is the length of
/// [pos_i, pos_{i+1}) with wraparound. Lengths sum to exactly ~1.
[[nodiscard]] std::vector<double> arc_lengths(
    std::span<const double> sorted_positions);

/// Number of arcs of length >= threshold. The paper's N_c statistic with
/// threshold = c/n (Lemmas 4 and 5).
[[nodiscard]] std::size_t count_arcs_at_least(std::span<const double> arcs,
                                              double threshold) noexcept;

/// Sum of the `a` largest arc lengths — the quantity bounded by Lemma 6
/// (<= 2 (a/n) ln(n/a) w.h.p.). `a` is clamped to the arc count.
[[nodiscard]] double sum_of_largest(std::span<const double> arcs,
                                    std::size_t a);

}  // namespace geochoice::geometry
