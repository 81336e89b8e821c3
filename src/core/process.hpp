// process.hpp — the sequential d-choice allocation process (the paper's
// primary contribution, Theorem 1 / Section 3 model).
//
// Balls arrive one at a time. Each ball draws d locations in the space,
// maps each to its owning bin, and joins the least-loaded of those bins;
// ties are resolved by the configured TieBreak strategy. The function is a
// template over the GeometricSpace concept, so the identical inner loop
// drives the ring, the torus, the classic uniform baseline, weighted bins,
// and user-defined spaces.
#pragma once

#include <cassert>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/result.hpp"
#include "core/tie_breaking.hpp"
#include "rng/distributions.hpp"
#include "spaces/space.hpp"

namespace geochoice::core {

struct ProcessOptions {
  /// Number of balls m. The paper's tables use m = n.
  std::uint64_t num_balls = 0;
  /// Number of choices d >= 1.
  int num_choices = 2;
  TieBreak tie = TieBreak::kRandom;
  ChoiceScheme scheme = ChoiceScheme::kIndependent;
  /// Record the height of every ball (needed by μ_i analyses; costs a
  /// histogram update per ball).
  bool record_heights = false;
};

namespace detail {

/// Draw the location for probe `j` of a ball. For the partitioned (Vöcking)
/// scheme the ring is cut into d equal sub-intervals and probe j is uniform
/// in the j-th; this only type-checks for 1-D (double) locations.
template <spaces::GeometricSpace S>
[[nodiscard]] typename S::Location sample_choice(const S& space,
                                                 rng::DefaultEngine& gen,
                                                 ChoiceScheme scheme, int j,
                                                 int d) {
  if constexpr (std::is_same_v<typename S::Location, double>) {
    if (scheme == ChoiceScheme::kPartitioned) {
      const double dd = static_cast<double>(d);
      return (static_cast<double>(j) + rng::uniform01(gen)) / dd;
    }
  }
  (void)j;
  (void)d;
  return space.sample(gen);
}

}  // namespace detail

/// Run the process and return the final loads (plus optional heights).
///
/// Complexity: O(m · d · L) where L is the space's owner-lookup cost
/// (O(log n) ring, O(1) expected torus/uniform).
template <spaces::GeometricSpace S>
[[nodiscard]] ProcessResult run_process(const S& space,
                                        const ProcessOptions& opt,
                                        rng::DefaultEngine& gen) {
  const std::size_t n = space.bin_count();
  if (n == 0) throw std::invalid_argument("run_process: empty space");
  if (opt.num_choices < 1) {
    throw std::invalid_argument("run_process: need at least one choice");
  }
  if (opt.scheme == ChoiceScheme::kPartitioned &&
      !std::is_same_v<typename S::Location, double>) {
    throw std::invalid_argument(
        "run_process: partitioned sampling requires a ring-like space");
  }

  ProcessResult result;
  result.loads.assign(n, 0);
  result.balls = opt.num_balls;
  const int d = opt.num_choices;
  const TieBreak tie = opt.tie;

  for (std::uint64_t ball = 0; ball < opt.num_balls; ++ball) {
    spaces::BinIndex best_bin = 0;
    std::uint32_t best_load = 0;
    double best_measure = 0.0;
    std::uint32_t tied = 0;  // probes seen with the current minimum load

    for (int j = 0; j < d; ++j) {
      const auto loc = detail::sample_choice(space, gen, opt.scheme, j, d);
      const spaces::BinIndex bin =
          static_cast<spaces::BinIndex>(space.owner(loc));
      const std::uint32_t load = result.loads[bin];

      if (j == 0 || load < best_load) {
        best_bin = bin;
        best_load = load;
        tied = 1;
        if (needs_region_measure(tie)) {
          best_measure = space.region_measure(bin);
        }
        continue;
      }
      if (load > best_load) continue;

      // Equal load: apply the tie-break strategy.
      switch (tie) {
        case TieBreak::kRandom:
          // Reservoir sampling keeps the choice uniform among all probes
          // that achieved the minimum load.
          ++tied;
          if (rng::uniform_below(gen, tied) == 0) best_bin = bin;
          break;
        case TieBreak::kFirstChoice:
          break;  // keep the earlier probe
        case TieBreak::kSmallerRegion: {
          const double m = space.region_measure(bin);
          if (m < best_measure) {
            best_bin = bin;
            best_measure = m;
          }
          break;
        }
        case TieBreak::kLargerRegion: {
          const double m = space.region_measure(bin);
          if (m > best_measure) {
            best_bin = bin;
            best_measure = m;
          }
          break;
        }
        case TieBreak::kLowestIndex:
          if (bin < best_bin) best_bin = bin;
          break;
      }
    }

    const std::uint32_t new_load = ++result.loads[best_bin];
    if (new_load > result.max_load) result.max_load = new_load;
    if (opt.record_heights) result.heights.add(new_load);
  }
  return result;
}

}  // namespace geochoice::core
