// batch_process.hpp — the batched d-choice allocation engine.
//
// run_process (process.hpp) is the reference oracle: one ball at a time,
// each probe a dependent chain of RNG draw -> owner lookup -> load read.
// The batched engine restructures the same process into three passes over
// blocks of balls:
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
// Without a thread pool the three passes run one after another on the
// calling thread, block by block. With one, a single trial runs on several
// cores: each block's resolve pass is cut into one contiguous slice of the
// probe buffer per pool worker, and it runs while the calling thread
// samples the next block and places the previous one, over two buffers (a
// software pipeline). Each slice writes only its own output slots and
// every owner equals space.owner(loc), so the pass is write-disjoint and
// its result does not depend on scheduling. Placement stays on the calling
// thread in ball order (placement.hpp says why).
//
// Pass 1 consumes the engine in the same order as the scalar loop's
// location draws, and pass 3 replays the scalar comparison logic, so for
// deterministic tie-breaks (kFirstChoice, kLowestIndex, and the region
// strategies) the final loads are bit-identical to run_process on the same
// engine state, with or without a pool. TieBreak::kRandom draws its ties
// from a substream split off the engine before the first location
// (rng::derive_substream, one draw), so the location stream stays
// contiguous and its loads are the same for every block size and pool
// size; they equal the scalar engine's in distribution, not draw for draw,
// which the statistical tests pin.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/placement.hpp"
#include "core/process.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/block_sampler.hpp"
#include "rng/streams.hpp"
#include "spaces/ring_space.hpp"
#include "spaces/space.hpp"
#include "spaces/torus_space.hpp"
#include "spaces/uniform_space.hpp"

namespace geochoice::core {

struct BatchOptions {
  /// Balls per block; 0 picks the engine's default (block_balls).
  std::size_t block_size = 0;

  /// The block size a run uses. The defaults: 1024 balls on one thread,
  /// which keeps the location/bin buffers (~24 KB for d = 2) inside L1/L2
  /// while amortizing per-block overhead; 8192 with a pool, which
  /// amortizes the per-block hand-off to the workers while the two
  /// buffers stay cache-resident for d = 2.
  [[nodiscard]] std::size_t block_balls(bool pooled) const noexcept {
    if (block_size != 0) return block_size;
    return pooled ? 8192 : 1024;
  }
};

/// Reusable block buffers, so a caller running many trials does not
/// re-allocate per trial. A pooled run keeps two blocks in each vector: the
/// one being placed and the one being resolved.
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

/// Pass 2 on a pool: one task per worker, each resolving one contiguous
/// slice of `locs` into the same slice of `out`. Returns without waiting.
template <spaces::GeometricSpace S>
void submit_resolve(parallel::ThreadPool& pool, const S& space,
                    std::span<const typename S::Location> locs,
                    std::span<spaces::BinIndex> out) {
  const std::size_t workers = pool.thread_count();
  const std::size_t slice = (locs.size() + workers - 1) / workers;
  for (std::size_t lo = 0; lo < locs.size(); lo += slice) {
    const std::size_t len = std::min(slice, locs.size() - lo);
    pool.submit([&space, part = locs.subspan(lo, len),
                 dst = out.subspan(lo, len)] {
      resolve_block_owners(space, part, dst);
    });
  }
}

}  // namespace detail

/// Batched run of the d-choice process. Same contract and result type as
/// run_process; see the header comment for the equivalence guarantees.
/// `pool` (optional) resolves each block on its workers while this thread
/// samples and places; it must not be running other tasks, since the
/// engine waits for the pool to drain. `scratch` (optional) recycles the
/// block buffers across calls.
template <spaces::GeometricSpace S>
[[nodiscard]] ProcessResult run_batch_process(
    const S& space, const ProcessOptions& opt, rng::DefaultEngine& gen,
    const BatchOptions& batch = {}, parallel::ThreadPool* pool = nullptr,
    BatchScratch<typename S::Location>* scratch = nullptr) {
  using Location = typename S::Location;
  const std::size_t n = space.bin_count();
  if (n == 0) throw std::invalid_argument("run_batch_process: empty space");
  if (opt.num_choices < 1) {
    throw std::invalid_argument("run_batch_process: need at least one choice");
  }
  if (opt.scheme == ChoiceScheme::kPartitioned &&
      !std::is_same_v<Location, double>) {
    throw std::invalid_argument(
        "run_batch_process: partitioned sampling requires a ring-like space");
  }
  // Identity-owner spaces have no resolve pass to hand to a pool.
  if constexpr (detail::OwnerIsIdentity<S>) pool = nullptr;

  ProcessResult result;
  result.loads.assign(n, 0);
  result.balls = opt.num_balls;
  const int d = opt.num_choices;
  const std::size_t du = static_cast<std::size_t>(d);
  const TieBreak tie = opt.tie;
  const std::size_t block = batch.block_balls(pool != nullptr);
  const std::size_t probes = block * du;
  std::uint32_t* const loads = result.loads.data();

  // kRandom ties get their own substream (one draw, before any location);
  // deterministic ties draw nothing, so the location stream is the scalar
  // loop's.
  rng::DefaultEngine tie_gen =
      tie == TieBreak::kRandom
          ? rng::derive_substream(gen, rng::StreamPurpose::kTieBreaking)
          : rng::DefaultEngine(0);

  BatchScratch<Location> local;
  BatchScratch<Location>& s = scratch ? *scratch : local;
  const std::uint64_t m = opt.num_balls;
  auto balls_from = [&](std::uint64_t done) {
    return static_cast<std::size_t>(std::min<std::uint64_t>(block, m - done));
  };

  if (pool == nullptr) {
    if constexpr (!detail::OwnerIsIdentity<S>) s.locations.resize(probes);
    s.bins.resize(probes);
    for (std::uint64_t done = 0; done < m;) {
      const std::size_t cur = balls_from(done);
      const std::span<spaces::BinIndex> bins(s.bins.data(), cur * du);
      if constexpr (detail::OwnerIsIdentity<S>) {
        detail::sample_block_locations(space, gen, opt.scheme, d, bins);
      } else {
        const std::span<Location> locs(s.locations.data(), cur * du);
        detail::sample_block_locations(space, gen, opt.scheme, d, locs);
        detail::resolve_block_owners<S>(space, locs, bins);
      }
      // Pass 3: sequential placement. Bins are known for the whole block,
      // so the random-access load slots of upcoming balls can be
      // prefetched while the current ball's comparisons run.
      detail::place_resolved_balls(space, tie, du, bins.data(), cur, loads,
                                   opt.record_heights, tie_gen, result);
      done += cur;
    }
    return result;
  }

  if constexpr (!detail::OwnerIsIdentity<S>) {
    // Two blocks per vector: block b lives in half b % 2.
    s.locations.resize(2 * probes);
    s.bins.resize(2 * probes);
    auto locs_of = [&](std::uint64_t done) {
      const std::size_t half = (done / block) % 2;
      return std::span<Location>(s.locations.data() + half * probes,
                                 balls_from(done) * du);
    };
    auto bins_of = [&](std::uint64_t done) {
      const std::size_t half = (done / block) % 2;
      return std::span<spaces::BinIndex>(s.bins.data() + half * probes,
                                         balls_from(done) * du);
    };
    auto sample = [&](std::uint64_t done) {
      detail::sample_block_locations(space, gen, opt.scheme, d,
                                     locs_of(done));
    };
    auto submit = [&](std::uint64_t done) {
      detail::submit_resolve<S>(*pool, space, locs_of(done), bins_of(done));
    };
    // The resolve tasks write into `s`: wait for them on every way out,
    // a throw from sampling or placement included, so none outlives it.
    struct Drain {
      parallel::ThreadPool& pool;
      ~Drain() {
        try {
          pool.wait();
        } catch (...) {  // a task's error is already propagating
        }
      }
    } drain{*pool};

    // The workers resolve block b while this thread samples block b + 1,
    // and block b + 1 while this thread places block b. Sampling stays in
    // block order on this thread, so the engine's draw order does not
    // depend on the pool.
    if (m > 0) {
      sample(0);
      submit(0);
    }
    for (std::uint64_t done = 0; done < m;) {
      const std::uint64_t next = done + balls_from(done);
      if (next < m) sample(next);
      pool->wait();  // block `done` is resolved; nothing else is in flight
      if (next < m) submit(next);
      const std::span<spaces::BinIndex> bins = bins_of(done);
      detail::place_resolved_balls(space, tie, du, bins.data(),
                                   bins.size() / du, loads,
                                   opt.record_heights, tie_gen, result);
      done = next;
    }
  }
  return result;
}

// The canonical spaces are instantiated once in batch_process.cpp; other
// spaces instantiate inline as usual.
extern template ProcessResult run_batch_process<spaces::RingSpace>(
    const spaces::RingSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, parallel::ThreadPool*, BatchScratch<double>*);
extern template ProcessResult run_batch_process<spaces::TorusSpace>(
    const spaces::TorusSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, parallel::ThreadPool*,
    BatchScratch<geometry::Vec2>*);
extern template ProcessResult run_batch_process<spaces::UniformSpace>(
    const spaces::UniformSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const BatchOptions&, parallel::ThreadPool*,
    BatchScratch<spaces::BinIndex>*);

}  // namespace geochoice::core
