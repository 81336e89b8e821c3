// torus_space.hpp — bins are Voronoi cells on the unit torus (Section 3).
//
// n servers placed uniformly at random on [0,1)^2 with wraparound; the bin
// of a location is its nearest server in the flat-torus metric. Owner
// lookup runs through the spatial grid (O(1) expected). Region measures are
// exact Voronoi cell areas; they are only needed by region-size
// tie-breaking and the Lemma 9 experiments, so they are computed on demand
// (`ensure_measures()`), not in the constructor.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "geometry/point.hpp"
#include "geometry/spatial_grid.hpp"
#include "geometry/voronoi.hpp"
#include "rng/block_sampler.hpp"
#include "rng/distributions.hpp"
#include "spaces/space.hpp"

namespace geochoice::spaces {

class TorusSpace {
 public:
  using Location = geometry::Vec2;

  /// Build from explicit server positions (wrapped into [0,1)^2).
  explicit TorusSpace(std::vector<geometry::Vec2> sites);

  /// Place `n` servers uniformly at random.
  static TorusSpace random(std::size_t n, rng::DefaultEngine& gen);

  [[nodiscard]] std::size_t bin_count() const noexcept {
    return grid_.site_count();
  }

  [[nodiscard]] Location sample(rng::DefaultEngine& gen) const noexcept {
    return {rng::uniform01(gen), rng::uniform01(gen)};
  }

  /// Bulk sample: draw-for-draw identical to calling sample() per element.
  void sample_block(rng::DefaultEngine& gen,
                    std::span<Location> out) const noexcept {
    rng::fill_uniform_2d(gen, out);
  }

  [[nodiscard]] BinIndex owner(Location p) const noexcept {
    return grid_.nearest(p);
  }

  /// Bulk owner lookup through SpatialGrid::nearest_batch, which runs its
  /// AVX-512 kernel on CPUs that have it and its scalar one elsewhere;
  /// result i equals owner(ps[i]) bit for bit on either.
  void owner_batch(std::span<const Location> ps,
                   std::span<BinIndex> out) const {
    grid_.nearest_batch(ps, out);
  }

  /// Exact Voronoi area of bin `i`. Requires ensure_measures() first;
  /// asserts otherwise (keeps the hot constructor free of the O(n) cell
  /// construction when the experiment never reads measures).
  [[nodiscard]] double region_measure(BinIndex i) const noexcept;

  /// Compute (once) the exact Voronoi areas of all bins.
  void ensure_measures();
  [[nodiscard]] bool has_measures() const noexcept {
    return areas_.has_value();
  }
  [[nodiscard]] std::span<const double> areas() const;

  [[nodiscard]] const geometry::SpatialGrid& grid() const noexcept {
    return grid_;
  }
  [[nodiscard]] std::span<const geometry::Vec2> sites() const noexcept {
    return grid_.sites();
  }

 private:
  geometry::SpatialGrid grid_;
  std::optional<std::vector<double>> areas_;
};

static_assert(GeometricSpace<TorusSpace>);

}  // namespace geochoice::spaces
