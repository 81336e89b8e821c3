#include "spaces/ring_space.hpp"

#include <cassert>
#include <utility>

namespace geochoice::spaces {

RingSpace::RingSpace(std::vector<double> positions)
    : positions_(std::move(positions)),
      directory_(geometry::sort_ring_positions(positions_)),
      arcs_(geometry::arc_lengths(positions_)) {}

RingSpace RingSpace::random(std::size_t n, rng::DefaultEngine& gen) {
  std::vector<double> pos(n);
  for (double& p : pos) p = rng::uniform01(gen);
  return RingSpace(std::move(pos));
}

RingSpace RingSpace::equally_spaced(std::size_t n) {
  assert(n > 0);
  std::vector<double> pos(n);
  for (std::size_t i = 0; i < n; ++i) {
    pos[i] = static_cast<double>(i) / static_cast<double>(n);
  }
  return RingSpace(std::move(pos));
}

}  // namespace geochoice::spaces
