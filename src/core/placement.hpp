// placement.hpp — the batched engine's sequential placement pass.
//
// Every block ends the same way, with or without a thread pool: walk the
// resolved (ball, bin) pairs in arrival order and replay the scalar loop's
// least-loaded / tie-break comparisons, prefetching upcoming load slots.
// Keeping that walk in one function, called from both block loops, is
// what makes the "bit-identical to run_process for deterministic
// tie-breaks" guarantee a property of a single piece of code.
//
// Placement is deliberately sequential even when a pool resolves owners: a
// ball's decision reads the loads its probes hit *at that ball's arrival
// time*, and with d independent probes a fraction ~(1 - 1/k) of balls
// straddle two of k parts of any split of the bins, so a per-part commit
// order would either diverge from the scalar semantics or serialize on
// cross-part traffic anyway. The parallel wins live in the pass that feeds
// this one (owner resolution).
#pragma once

#include <cstddef>
#include <cstdint>

#include "core/result.hpp"
#include "core/tie_breaking.hpp"
#include "rng/distributions.hpp"
#include "spaces/space.hpp"

namespace geochoice::core::detail {

/// Place `balls` consecutive balls whose resolved probes are
/// `bins[ball * d + j]`, updating `loads` / `result` exactly as the scalar
/// loop would. `tie_gen` is consumed only by TieBreak::kRandom.
template <spaces::GeometricSpace S>
void place_resolved_balls(const S& space, TieBreak tie, std::size_t d,
                          const spaces::BinIndex* bins, std::size_t balls,
                          std::uint32_t* loads, bool record_heights,
                          rng::DefaultEngine& tie_gen,
                          ProcessResult& result) {
  constexpr std::size_t kPrefetchAhead = 8;
  for (std::size_t b = 0; b < balls; ++b) {
    if (b + kPrefetchAhead < balls) {
      const spaces::BinIndex* ahead = bins + (b + kPrefetchAhead) * d;
      for (std::size_t j = 0; j < d; ++j) {
        __builtin_prefetch(loads + ahead[j], 1);
      }
    }

    const spaces::BinIndex* ball_bins = bins + b * d;
    spaces::BinIndex best_bin = 0;
    std::uint32_t best_load = 0;
    double best_measure = 0.0;
    std::uint32_t tied = 0;  // probes seen with the current minimum load

    for (std::size_t j = 0; j < d; ++j) {
      const spaces::BinIndex bin = ball_bins[j];
      const std::uint32_t load = loads[bin];

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

      switch (tie) {
        case TieBreak::kRandom:
          // Reservoir sampling keeps the choice uniform among all probes
          // that achieved the minimum load.
          ++tied;
          if (rng::uniform_below(tie_gen, tied) == 0) best_bin = bin;
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

    const std::uint32_t new_load = ++loads[best_bin];
    if (new_load > result.max_load) result.max_load = new_load;
    if (record_heights) result.heights.add(new_load);
  }
}

}  // namespace geochoice::core::detail
