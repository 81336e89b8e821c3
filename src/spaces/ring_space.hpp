// ring_space.hpp — bins are arcs of the unit circle (Section 2).
//
// n servers hashed uniformly onto a circle of circumference 1; server i
// owns the counterclockwise arc from its position to the next server's
// (consistent hashing). The positions are bucket-sorted into n buckets of
// width 1/n, and the bucket starts are kept as a directory: a bulk owner
// lookup counts inside the query's bucket, while owner() stays a binary
// search over the sorted positions and serves as its reference. Region
// measures are the arc lengths.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "geometry/ring_arithmetic.hpp"
#include "rng/block_sampler.hpp"
#include "rng/distributions.hpp"
#include "spaces/space.hpp"

namespace geochoice::spaces {

class RingSpace {
 public:
  /// A location on the circle, in [0, 1).
  using Location = double;

  /// Build from explicit server positions (any order; must be in [0, 1)).
  /// Bin i refers to the i-th position in *sorted* order.
  explicit RingSpace(std::vector<double> positions);

  /// Hash `n` servers uniformly at random onto the circle.
  static RingSpace random(std::size_t n, rng::DefaultEngine& gen);

  /// Degenerate equally-spaced ring (arc lengths exactly 1/n); useful as a
  /// "perfect virtual servers" idealization and in tests.
  static RingSpace equally_spaced(std::size_t n);

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return positions_.size();
  }

  [[nodiscard]] Location sample(rng::DefaultEngine& gen) const noexcept {
    return rng::uniform01(gen);
  }

  /// Bulk sample: one tight fill loop, draw-for-draw identical to calling
  /// sample() once per element (the batched engine's fast path).
  void sample_block(rng::DefaultEngine& gen,
                    std::span<Location> out) const noexcept {
    rng::fill_uniform01(gen, out);
  }

  [[nodiscard]] BinIndex owner(Location x) const noexcept {
    return static_cast<BinIndex>(geometry::ring_owner(positions_, x));
  }

  /// Bulk owner lookup: a branch-free count inside each query's directory
  /// bucket, with prefetch; result i equals owner(xs[i]).
  void owner_batch(std::span<const Location> xs,
                   std::span<BinIndex> out) const noexcept {
    geometry::ring_owner_batch(positions_, directory_, xs, out);
  }

  /// Arc length of bin `i` — its selection probability.
  [[nodiscard]] double region_measure(BinIndex i) const noexcept {
    return arcs_[i];
  }

  [[nodiscard]] std::span<const double> positions() const noexcept {
    return positions_;
  }
  [[nodiscard]] std::span<const double> arc_lengths() const noexcept {
    return arcs_;
  }

 private:
  std::vector<double> positions_;          // sorted
  std::vector<std::uint32_t> directory_;  // see sort_ring_positions
  std::vector<double> arcs_;  // arcs_[i] = gap from positions_[i] to next
};

static_assert(GeometricSpace<RingSpace>);

}  // namespace geochoice::spaces
