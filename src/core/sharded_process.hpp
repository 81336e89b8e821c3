// sharded_process.hpp — the sharded intra-trial d-choice allocation engine.
//
// run_process places one ball at a time; run_batch_process restructures a
// trial into sample -> resolve -> place passes over blocks but still runs
// every pass on one thread. This engine parallelizes the expensive middle
// pass *within a single trial* by cutting the space into one contiguous
// shard per worker (spaces expose shard_of(location, k)) and gathering
// each block's probes into per-worker queues (parallel/shard_queues.hpp):
//
//   1. sample  — the main thread fills the block's location buffer in one
//                tight RNG loop, in exactly the scalar loop's draw order;
//   2. resolve — each worker gathers the probes of its own shard and
//                resolves them with the space's bulk lookup
//                (owner_batch: the ring's bucket directory, the torus
//                grid's 3x3 scan), so the part of the structure it reads
//                is ~1/workers of the whole. Every output slot is written
//                by exactly one worker, and every resolution equals
//                space.owner(loc) exactly, so the pass is write-disjoint
//                and scheduling-independent;
//   3. place   — the main thread replays the scalar tie-break walk
//                (core/placement.hpp) in ball order, overlapped with the
//                workers resolving the *next* block (software pipeline).
//
// Determinism contract: loads are invariant to thread count and block
// size. For deterministic tie-breaks the location stream is consumed
// contiguously and placement replays the scalar comparisons, so results
// are bit-identical to run_process on the same engine state. For
// TieBreak::kRandom the engine first splits off a dedicated tie-break
// substream (rng::derive_substream — one draw), which keeps the location
// stream contiguous and makes kRandom results independent of the thread
// count and block size too (run_batch_process, by contrast, interleaves
// tie draws at block boundaries, so its kRandom results depend on block
// size).
//
// Placement stays sequential on purpose: with d independent probes and k
// shards, ~(1 - 1/k) of balls straddle shards, so a per-shard commit order
// cannot reproduce the scalar arrival-time semantics without serializing on
// cross-shard traffic. Sampling and placement are O(ns) per ball; owner
// resolution dominates (see BENCH_batch.json) and is what shards across
// cores — the step that unlocks m ~ 1e8-ball single-trial runs.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "core/batch_process.hpp"
#include "core/placement.hpp"
#include "core/process.hpp"
#include "parallel/shard_queues.hpp"
#include "parallel/thread_pool.hpp"
#include "rng/streams.hpp"
#include "spaces/ring_space.hpp"
#include "spaces/space.hpp"
#include "spaces/torus_space.hpp"
#include "spaces/uniform_space.hpp"

namespace geochoice::core {

/// A space the sharded engine can route: GeometricSpace plus a
/// shard_of(location, k) hook mapping locations to one of k contiguous
/// shards.
template <typename S>
concept ShardableSpace =
    spaces::GeometricSpace<S> &&
    requires(const S& s, const typename S::Location& loc, std::uint32_t k) {
      { s.shard_of(loc, k) } -> std::convertible_to<std::uint32_t>;
    };

struct ShardedOptions {
  /// Resolver worker threads, one space shard each. 0 =
  /// hardware_concurrency. The main thread additionally runs sampling and
  /// placement, pipelined with the workers.
  std::size_t threads = 0;
  /// Balls per pipeline block: large enough to amortize the per-block
  /// fork/join, small enough that the double-buffered location/bin buffers
  /// stay cache-resident for d = 2.
  std::size_t block_balls = 8192;
};

/// Reusable buffers for the sharded engine: double-buffered block buffers
/// plus one gather queue / resolve scratch per worker. Pass across calls
/// (e.g. run_sharded_trials) so a sweep performs O(workers) allocations.
template <typename Location>
struct ShardedScratch {
  struct Worker {
    parallel::ShardQueue<Location> queue;
    std::vector<spaces::BinIndex> owners;  // resolved owners
  };
  std::vector<Location> locations[2];
  std::vector<spaces::BinIndex> bins[2];
  std::vector<Worker> workers;
};

namespace detail {

/// Resolve one worker's gathered queue and scatter the owners into `bins`.
/// Every resolved value equals space.owner(item) exactly — shard-locality
/// is purely an access-pattern optimization, which is what makes the
/// parallel pass exact and scheduling-independent. A probe whose owner
/// lies in a neighbouring shard (a ring server just before the shard, a
/// torus site in the next band) needs no special pass: the bulk lookup is
/// global and only reads a little of the neighbour's data.
template <spaces::GeometricSpace S>
void resolve_shard_queue(const S& space,
                         typename ShardedScratch<typename S::Location>::Worker&
                             wk,
                         spaces::BinIndex* bins) {
  const auto& q = wk.queue;
  wk.owners.resize(q.size());
  core::detail::resolve_block_owners(space, std::span(q.items),
                                     std::span(wk.owners));
  for (std::size_t j = 0; j < q.size(); ++j) {
    bins[q.slots[j]] = wk.owners[j];
  }
}

}  // namespace detail

/// Sharded run of the d-choice process. Same contract and result type as
/// run_process; see the header comment for the determinism guarantees.
/// `pool` (optional) supplies the resolver workers — pass one to avoid
/// spawning threads per call; `scratch` (optional) recycles buffers.
template <ShardableSpace S>
[[nodiscard]] ProcessResult run_sharded_process(
    const S& space, const ProcessOptions& opt, rng::DefaultEngine& gen,
    const ShardedOptions& sharded = {},
    parallel::ThreadPool* pool = nullptr,
    ShardedScratch<typename S::Location>* scratch = nullptr) {
  using Location = typename S::Location;
  const std::size_t n = space.bin_count();
  if (n == 0) throw std::invalid_argument("run_sharded_process: empty space");
  if (opt.num_choices < 1) {
    throw std::invalid_argument(
        "run_sharded_process: need at least one choice");
  }
  if (opt.scheme == ChoiceScheme::kPartitioned &&
      !std::is_same_v<Location, double>) {
    throw std::invalid_argument(
        "run_sharded_process: partitioned sampling requires a ring-like "
        "space");
  }

  ProcessResult result;
  result.loads.assign(n, 0);
  result.balls = opt.num_balls;
  const int d = opt.num_choices;
  const std::size_t du = static_cast<std::size_t>(d);
  const TieBreak tie = opt.tie;
  const std::size_t block = std::max<std::size_t>(1, sharded.block_balls);

  // kRandom ties draw from a dedicated substream (one derivation draw) so
  // the location stream stays contiguous; deterministic ties draw nothing,
  // preserving bit-identity with run_process.
  rng::DefaultEngine tie_gen =
      tie == TieBreak::kRandom
          ? rng::derive_substream(gen, rng::StreamPurpose::kTieBreaking)
          : rng::DefaultEngine(0);

  ShardedScratch<Location> local_scratch;
  ShardedScratch<Location>& s = scratch ? *scratch : local_scratch;
  for (auto& buf : s.bins) buf.resize(block * du);
  std::uint32_t* const loads = result.loads.data();

  // Identity-owner spaces have nothing to resolve: sample straight into the
  // bin buffer and place. (Sharding exists for owner lookups; there are
  // none here.)
  if constexpr (core::detail::OwnerIsIdentity<S>) {
    for (std::uint64_t done = 0; done < opt.num_balls;) {
      const std::size_t cur = static_cast<std::size_t>(
          std::min<std::uint64_t>(block, opt.num_balls - done));
      const std::span<spaces::BinIndex> bins(s.bins[0].data(), cur * du);
      core::detail::sample_block_locations(space, gen, opt.scheme, d, bins);
      detail::place_resolved_balls(space, tie, du, bins.data(), cur, loads,
                                   opt.record_heights, tie_gen, result);
      done += cur;
    }
    return result;
  } else {
    std::optional<parallel::ThreadPool> local_pool;
    if (!pool) local_pool.emplace(sharded.threads);
    parallel::ThreadPool& workers_pool = pool ? *pool : *local_pool;
    const std::size_t workers = workers_pool.thread_count();
    const auto shards = static_cast<std::uint32_t>(workers);
    s.workers.resize(workers);
    for (auto& buf : s.locations) buf.resize(block * du);

    // Block sizes for the whole run, precomputed so the pipeline below can
    // look one block ahead.
    const std::uint64_t m = opt.num_balls;
    const std::size_t nblocks =
        static_cast<std::size_t>((m + block - 1) / block);
    auto block_balls_of = [&](std::size_t blk) {
      return static_cast<std::size_t>(std::min<std::uint64_t>(
          block, m - static_cast<std::uint64_t>(blk) * block));
    };

    auto submit_resolve = [&](std::size_t buf, std::size_t balls) {
      const std::size_t probes = balls * du;
      const Location* const locs = s.locations[buf].data();
      spaces::BinIndex* const bins = s.bins[buf].data();
      for (std::size_t w = 0; w < workers; ++w) {
        workers_pool.submit([&, w, locs, bins, probes] {
          auto& wk = s.workers[w];
          wk.queue.clear();
          // Gather this worker's shard into its private queue. Every probe
          // has exactly one owning worker, so the resolve's scatter is
          // write-disjoint across workers.
          for (std::size_t i = 0; i < probes; ++i) {
            if (space.shard_of(locs[i], shards) == w) {
              wk.queue.push(static_cast<std::uint32_t>(i), locs[i]);
            }
          }
          detail::resolve_shard_queue(space, wk, bins);
        });
      }
    };

    // Nothing to pipeline for an empty run — and the prologue below would
    // otherwise enqueue resolve tasks that outlive this frame's scratch
    // (the block loop that waits on them never executes).
    if (nblocks == 0) return result;

    // Software pipeline over double buffers: while the workers resolve
    // block b+1, the main thread places block b. Sampling always happens
    // in block order on the main thread, so the engine draw order is
    // fixed regardless of the thread count.
    std::size_t cur = 0;
    {
      const std::size_t balls0 = block_balls_of(0);
      const std::span<Location> locs(s.locations[cur].data(), balls0 * du);
      core::detail::sample_block_locations(space, gen, opt.scheme, d, locs);
      submit_resolve(cur, balls0);
    }
    for (std::size_t blk = 0; blk < nblocks; ++blk) {
      const std::size_t balls = block_balls_of(blk);
      const std::size_t nxt = 1 - cur;
      if (blk + 1 < nblocks) {
        const std::size_t next_balls = block_balls_of(blk + 1);
        const std::span<Location> locs(s.locations[nxt].data(),
                                       next_balls * du);
        core::detail::sample_block_locations(space, gen, opt.scheme, d, locs);
      }
      workers_pool.wait();  // resolve of block `blk` complete
      if (blk + 1 < nblocks) submit_resolve(nxt, block_balls_of(blk + 1));
      detail::place_resolved_balls(space, tie, du, s.bins[cur].data(), balls,
                                   loads, opt.record_heights, tie_gen,
                                   result);
      cur = nxt;
    }
    return result;
  }
}

/// Monte-Carlo sweep over the sharded engine: `trials` runs with the same
/// per-trial engine derivation as parallel::run_trials / run_batch_trials.
/// Trials run back-to-back, each using the full worker pool — this entry
/// point is for a handful of huge trials (the regime the sharded engine
/// exists for); use run_batch_trials when trials, not balls, are plentiful.
template <ShardableSpace S>
[[nodiscard]] std::vector<ProcessResult> run_sharded_trials(
    const S& space, const ProcessOptions& opt, std::uint64_t trials,
    std::uint64_t master_seed, const ShardedOptions& sharded = {}) {
  std::vector<ProcessResult> results(trials);
  parallel::ThreadPool pool(sharded.threads);
  ShardedScratch<typename S::Location> scratch;
  for (std::uint64_t t = 0; t < trials; ++t) {
    auto engine = rng::make_trial_engine(master_seed, t);
    results[t] =
        run_sharded_process(space, opt, engine, sharded, &pool, &scratch);
  }
  return results;
}

// The canonical spaces are instantiated once in sharded_process.cpp.
extern template ProcessResult run_sharded_process<spaces::RingSpace>(
    const spaces::RingSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const ShardedOptions&, parallel::ThreadPool*, ShardedScratch<double>*);
extern template ProcessResult run_sharded_process<spaces::TorusSpace>(
    const spaces::TorusSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const ShardedOptions&, parallel::ThreadPool*,
    ShardedScratch<geometry::Vec2>*);
extern template ProcessResult run_sharded_process<spaces::UniformSpace>(
    const spaces::UniformSpace&, const ProcessOptions&, rng::DefaultEngine&,
    const ShardedOptions&, parallel::ThreadPool*,
    ShardedScratch<spaces::BinIndex>*);

}  // namespace geochoice::core
