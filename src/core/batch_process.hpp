// batch_process.hpp — the batched d-choice allocation engine.
//
// run_process (process.hpp) is the reference oracle: one ball at a time,
// each probe a dependent chain of RNG draw -> owner lookup -> load read.
// The batched engine restructures the same process into three passes over
// blocks of ~1024 balls:
//
//   1. sample  — fill a contiguous buffer with all block_size · d probe
//                locations in one tight RNG loop (rng/block_sampler.hpp);
//   2. resolve — map the whole buffer to owning bins with the space's bulk
//                lookup (a branch-free count inside the query's bucket of
//                the ring's directory, a 3x3 padded-row grid scan on the
//                torus, vectorized on CPUs with AVX-512);
//   3. place   — walk the resolved bins sequentially with the exact scalar
//                tie-break semantics, prefetching upcoming load slots.
//
// Pass 1 consumes the engine in the same order as the scalar loop's
// location draws, and pass 3 replays the scalar comparison logic, so for
// deterministic tie-breaks (kFirstChoice, kLowestIndex, and the region
// strategies) the final loads are bit-identical to run_process on the same
// engine state. TieBreak::kRandom still needs tie-break draws; the batched
// engine takes them from the same engine *after* the block's locations, so
// its exact stream differs from the scalar interleaving — equal in
// distribution, pinned by the statistical tests instead.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/placement.hpp"
#include "core/process.hpp"
#include "core/slab_pool.hpp"
#include "parallel/trial_runner.hpp"
#include "rng/block_sampler.hpp"
#include "spaces/ring_space.hpp"
#include "spaces/space.hpp"
#include "spaces/torus_space.hpp"
#include "spaces/uniform_space.hpp"

namespace geochoice::core {

struct BatchOptions {
  /// Balls per block. ~1024 keeps the location/bin buffers (~24 KB for
  /// d = 2) inside L1/L2 while amortizing per-block overhead.
  std::size_t block_size = 1024;
};

/// Reusable per-worker buffers so Monte-Carlo sweeps don't re-allocate per
/// trial (see run_batch_trials).
template <typename Location>
struct BatchScratch {
  std::vector<Location> locations;
  std::vector<spaces::BinIndex> bins;
};

namespace detail {

template <typename S>
concept HasSampleBlock =
    requires(const S& s, rng::DefaultEngine& gen,
             std::span<typename S::Location> out) { s.sample_block(gen, out); };

template <typename S>
concept HasOwnerBatch =
    requires(const S& s, std::span<const typename S::Location> locs,
             std::span<spaces::BinIndex> out) { s.owner_batch(locs, out); };

/// Spaces whose locations are already bin indices (owner == identity) let
/// the engine sample straight into the bin buffer and skip pass 2.
template <typename S>
concept OwnerIsIdentity =
    std::is_same_v<typename S::Location, spaces::BinIndex> &&
    requires { requires S::kOwnerIsIdentity; };

/// Pass 1: fill `out` with probe locations, ball-major probe-minor, in the
/// same engine-draw order as the scalar loop's sample_choice calls.
template <spaces::GeometricSpace S>
void sample_block_locations(const S& space, rng::DefaultEngine& gen,
                            ChoiceScheme scheme, int d,
                            std::span<typename S::Location> out) {
  if constexpr (std::is_same_v<typename S::Location, double>) {
    if (scheme == ChoiceScheme::kPartitioned) {
      rng::fill_partitioned_ring(gen, d, out);
      return;
    }
  }
  if constexpr (HasSampleBlock<S>) {
    space.sample_block(gen, out);
  } else {
    for (auto& loc : out) loc = space.sample(gen);
  }
}

/// Pass 2: resolve every location to its owning bin.
template <spaces::GeometricSpace S>
void resolve_block_owners(const S& space,
                          std::span<const typename S::Location> locs,
                          std::span<spaces::BinIndex> out) {
  if constexpr (HasOwnerBatch<S>) {
    space.owner_batch(locs, out);
  } else {
    for (std::size_t i = 0; i < locs.size(); ++i) {
      out[i] = static_cast<spaces::BinIndex>(space.owner(locs[i]));
    }
  }
}

}  // namespace detail

/// Batched run of the d-choice process. Same contract and result type as
/// run_process; see the header comment for the equivalence guarantees.
/// `scratch` (optional) recycles the block buffers across calls.
template <spaces::GeometricSpace S>
[[nodiscard]] ProcessResult run_batch_process(
    const S& space, const ProcessOptions& opt, rng::DefaultEngine& gen,
    const BatchOptions& batch = {},
    BatchScratch<typename S::Location>* scratch = nullptr) {
  const std::size_t n = space.bin_count();
  if (n == 0) throw std::invalid_argument("run_batch_process: empty space");
  if (opt.num_choices < 1) {
    throw std::invalid_argument("run_batch_process: need at least one choice");
  }
  if (opt.scheme == ChoiceScheme::kPartitioned &&
      !std::is_same_v<typename S::Location, double>) {
    throw std::invalid_argument(
        "run_batch_process: partitioned sampling requires a ring-like space");
  }

  ProcessResult result;
  result.loads.assign(n, 0);
  result.balls = opt.num_balls;
  const int d = opt.num_choices;
  const std::size_t du = static_cast<std::size_t>(d);
  const TieBreak tie = opt.tie;
  const std::size_t block = std::max<std::size_t>(1, batch.block_size);

  BatchScratch<typename S::Location> local;
  BatchScratch<typename S::Location>& s = scratch ? *scratch : local;
  if constexpr (!detail::OwnerIsIdentity<S>) {
    s.locations.resize(block * du);
  }
  s.bins.resize(block * du);
  std::uint32_t* const loads = result.loads.data();

  for (std::uint64_t done = 0; done < opt.num_balls;) {
    const std::size_t cur = static_cast<std::size_t>(
        std::min<std::uint64_t>(block, opt.num_balls - done));
    const std::span<spaces::BinIndex> bins(s.bins.data(), cur * du);

    if constexpr (detail::OwnerIsIdentity<S>) {
      detail::sample_block_locations(space, gen, opt.scheme, d, bins);
    } else {
      const std::span<typename S::Location> locs(s.locations.data(), cur * du);
      detail::sample_block_locations(space, gen, opt.scheme, d, locs);
      detail::resolve_block_owners<S>(space, locs, bins);
    }

    // Pass 3: sequential placement. Bins are known for the whole block, so
    // the random-access load slots of upcoming balls can be prefetched
    // while the current ball's comparisons run. Tie draws (kRandom only)
    // come from the same engine, after the block's location draws.
    detail::place_resolved_balls(space, tie, du, bins.data(), cur, loads,
                                 opt.record_heights, gen, result);
    done += cur;
  }
  return result;
}

/// Monte-Carlo sweep over the batched engine: `trials` independent runs
/// with engines derived exactly as parallel::run_trials derives them, so
/// results are bit-identical for any thread count. Worker blocks lease
/// their BatchScratch from a SlabPool, so buffer allocations are bounded
/// by the number of *concurrently running* blocks (<= workers), not the
/// block count, and a finished block's warmed-up buffers are reused by
/// the next block that acquires them. Scratch contents never influence
/// results (each block resizes before writing), so the recycling cannot
/// perturb the bit-identical-to-run_process guarantee the differential
/// tests pin.
template <spaces::GeometricSpace S>
[[nodiscard]] std::vector<ProcessResult> run_batch_trials(
    const S& space, const ProcessOptions& opt, std::uint64_t trials,
    std::uint64_t master_seed, std::size_t threads = 0,
    const BatchOptions& batch = {}) {
  std::vector<ProcessResult> results(trials);
  parallel::ThreadPool pool(threads);
  SlabPool<BatchScratch<typename S::Location>> scratch_pool;
  parallel::parallel_for_blocks(
      pool, 0, trials, [&](std::size_t lo, std::size_t hi) {
        const auto scratch = scratch_pool.acquire();
        for (std::size_t t = lo; t < hi; ++t) {
          auto engine = rng::make_trial_engine(master_seed, t);
          results[t] = run_batch_process(space, opt, engine, batch,
                                         scratch.get());
        }
      });
  return results;
}

// The canonical spaces are instantiated once in batch_process.cpp; other
// spaces instantiate inline as usual.
extern template ProcessResult run_batch_process<spaces::RingSpace>(
    const spaces::RingSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, BatchScratch<double>*);
extern template ProcessResult run_batch_process<spaces::TorusSpace>(
    const spaces::TorusSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, BatchScratch<geometry::Vec2>*);
extern template ProcessResult run_batch_process<spaces::UniformSpace>(
    const spaces::UniformSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, BatchScratch<spaces::BinIndex>*);

}  // namespace geochoice::core
