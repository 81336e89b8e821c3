// sharded_process.hpp — the sharded intra-trial d-choice allocation engine.
//
// run_process places one ball at a time; run_batch_process restructures a
// trial into sample -> resolve -> place passes over blocks but still runs
// every pass on one thread. This engine parallelizes the expensive middle
// pass *within a single trial* by partitioning the space into contiguous
// shards (spaces expose shard_of(location, k)) and routing each block's
// probes to per-shard queues (parallel/shard_queues.hpp):
//
//   1. sample  — the main thread fills the block's location buffer in one
//                tight RNG loop, in exactly the scalar loop's draw order;
//   2. resolve — worker threads drain their own shards' queues against
//                shard-local structures (the ring's sorted positions sliced
//                into per-shard sub-ranges; the torus grid's batch kernel
//                over the queries of one band). Probes a shard cannot answer
//                locally — a ring probe whose owning server lies in an
//                earlier shard — are resolved in a deterministic second
//                pass. Every output slot is written by exactly one worker,
//                and every resolution equals space.owner(loc) exactly, so
//                the pass is write-disjoint and scheduling-independent;
//   3. place   — the main thread replays the scalar tie-break walk
//                (core/placement.hpp) in ball order, overlapped with the
//                workers resolving the *next* block (software pipeline).
//
// Determinism contract: loads are invariant to thread count, shard count,
// and block size. For deterministic tie-breaks the location stream is
// consumed contiguously and placement replays the scalar comparisons, so
// results are bit-identical to run_process on the same engine state. For
// TieBreak::kRandom the engine first splits off a dedicated tie-break
// substream (rng::derive_substream — one draw), which keeps the location
// stream contiguous and makes kRandom results independent of every
// sharding parameter too (run_batch_process, by contrast, interleaves tie
// draws at block boundaries, so its kRandom results depend on block size).
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
#include "geometry/ring_arithmetic.hpp"
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
  /// Number of contiguous space shards. 0 = auto: >= 64 so ring sub-ranges
  /// stay L1-resident at interesting n, scaled 32 per worker, capped.
  std::uint32_t shards = 0;
  /// Resolver worker threads. 0 = hardware_concurrency. The main thread
  /// additionally runs sampling and placement, pipelined with the workers.
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
    std::vector<std::uint32_t> run_start;     // per-shard run offsets
    std::vector<std::uint32_t> cursor;        // counting-sort cursors
    std::vector<std::uint32_t> sorted_slots;  // queue sorted by shard
    std::vector<Location> sorted_items;
    std::vector<spaces::BinIndex> owners;     // resolved owners
  };
  std::vector<Location> locations[2];
  std::vector<spaces::BinIndex> bins[2];
  std::vector<Worker> workers;
};

namespace detail {

/// Per-run routing state. For the ring it slices the sorted position array
/// into per-shard sub-ranges so workers search L1-resident slices of
/// ~n/shards positions instead of the full array.
struct ShardRouting {
  std::uint32_t shards = 1;
  std::vector<std::uint32_t> ring_shard_first;  // size shards+1 (ring only)
};

template <spaces::GeometricSpace S>
[[nodiscard]] inline ShardRouting make_shard_routing(const S& space,
                                                     std::uint32_t shards) {
  ShardRouting r;
  r.shards = shards;
  if constexpr (std::is_same_v<S, spaces::RingSpace>) {
    // first[s] = first index whose position's shard is >= s, computed with
    // the same shard_of comparison that routes probes. Slicing by the
    // arithmetic boundary s/shards instead would disagree with shard_of by
    // one ULP for some (s, shards) pairs, and a server position inside
    // that window would be filed in a slice the probe's shard never
    // searches — breaking the bit-identity contract.
    const std::span<const double> pos = space.positions();
    r.ring_shard_first.resize(shards + 1);
    std::uint32_t idx = 0;
    for (std::uint32_t s = 0; s <= shards; ++s) {
      while (idx < pos.size() &&
             spaces::RingSpace::shard_of(pos[idx], shards) < s) {
        ++idx;
      }
      r.ring_shard_first[s] = idx;
    }
  }
  return r;
}

/// Resolve one worker's gathered queue and scatter the owners into `bins`.
/// Every resolved value equals space.owner(item) exactly — shard-locality
/// is purely an access-pattern optimization, which is what makes the
/// parallel pass exact and scheduling-independent.
template <spaces::GeometricSpace S>
void resolve_shard_queue(const S& space, const ShardRouting& routing,
                         std::uint32_t own_lo, std::uint32_t own_hi,
                         typename ShardedScratch<typename S::Location>::Worker&
                             wk,
                         spaces::BinIndex* bins) {
  auto& q = wk.queue;
  const std::size_t nq = q.size();
  wk.owners.resize(nq);

  if constexpr (std::is_same_v<S, spaces::RingSpace>) {
    // Drain shard by shard: counting-sort the queue into per-shard runs,
    // then run the lockstep branchless predecessor search
    // (geometry::ring_owner_batch) on each shard's slice of the sorted
    // position array. The slice is extended one position to the left so a
    // cross-shard probe — one whose owning server precedes the shard — is
    // answered locally: positions between the shard's lower boundary and
    // the probe all lie inside the shard, so the only out-of-shard
    // candidate is that single predecessor. Probes on the wrapping arc
    // (before the first server of the whole ring) are the one case a
    // slice cannot answer; a deterministic fixup pass maps them to the
    // last server, exactly as the global search would.
    const std::uint32_t owned = own_hi > own_lo ? own_hi - own_lo : 0;
    wk.run_start.assign(owned + 1, 0);
    for (std::size_t j = 0; j < nq; ++j) {
      ++wk.run_start[q.keys[j] - own_lo + 1];
    }
    for (std::uint32_t s = 0; s < owned; ++s) {
      wk.run_start[s + 1] += wk.run_start[s];
    }
    wk.cursor.assign(wk.run_start.begin(), wk.run_start.end() - 1);
    wk.sorted_slots.resize(nq);
    wk.sorted_items.resize(nq);
    for (std::size_t j = 0; j < nq; ++j) {
      const std::uint32_t at = wk.cursor[q.keys[j] - own_lo]++;
      wk.sorted_slots[at] = q.slots[j];
      wk.sorted_items[at] = q.items[j];
    }

    const std::span<const double> pos = space.positions();
    const std::uint32_t* const first = routing.ring_shard_first.data();
    const auto last_bin =
        static_cast<spaces::BinIndex>(space.bin_count() - 1);
    for (std::uint32_t s = 0; s < owned; ++s) {
      const std::uint32_t beg = wk.run_start[s];
      const std::uint32_t end = wk.run_start[s + 1];
      if (beg == end) continue;
      const std::uint32_t f = first[own_lo + s];
      const std::uint32_t sub_lo = f > 0 ? f - 1 : 0;
      const std::uint32_t sub_hi = first[own_lo + s + 1];
      if (sub_hi <= sub_lo) {
        // Shard lies entirely before the first server: every probe is on
        // the wrapping arc of the last one.
        for (std::uint32_t i = beg; i < end; ++i) wk.owners[i] = last_bin;
        continue;
      }
      geometry::ring_owner_batch(
          pos.subspan(sub_lo, sub_hi - sub_lo),
          std::span<const double>(wk.sorted_items.data() + beg, end - beg),
          std::span<spaces::BinIndex>(wk.owners.data() + beg, end - beg));
      // Fixup pass: translate slice-local indices to global bins; a result
      // whose position still exceeds the probe marks the wrapping arc
      // (only possible when the slice starts at position 0).
      for (std::uint32_t i = beg; i < end; ++i) {
        const std::uint32_t g = wk.owners[i] + sub_lo;
        wk.owners[i] = pos[g] <= wk.sorted_items[i] ? g : last_bin;
      }
    }
    for (std::size_t j = 0; j < nq; ++j) {
      bins[wk.sorted_slots[j]] = wk.owners[j];
    }
    return;
  } else if constexpr (core::detail::HasOwnerBatch<S>) {
    // The torus grid lookup is global and exact, so a torus "cross-shard
    // probe" (a query whose nearest site sits in a neighboring band) needs
    // no special pass — the 3x3 block scan just reads a few read-only rows
    // of the adjacent band. Band-gathered queries keep the touched rows to
    // ~1/shards of the grid.
    space.owner_batch(q.items, wk.owners);
  } else {
    for (std::size_t j = 0; j < nq; ++j) {
      wk.owners[j] = static_cast<spaces::BinIndex>(space.owner(q.items[j]));
    }
  }
  for (std::size_t j = 0; j < nq; ++j) {
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
    const std::uint32_t shards =
        sharded.shards > 0
            ? sharded.shards
            : static_cast<std::uint32_t>(std::min<std::size_t>(
                  std::max<std::size_t>(32 * workers, 64), 4096));
    s.workers.resize(workers);
    for (auto& buf : s.locations) buf.resize(block * du);

    const detail::ShardRouting routing =
        detail::make_shard_routing(space, shards);

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
          const std::uint32_t own_lo =
              parallel::shard_begin(w, routing.shards, workers);
          const std::uint32_t own_hi =
              parallel::shard_begin(w + 1, routing.shards, workers);
          wk.queue.clear();
          // Gather this worker's shards into its private queue. Every
          // probe has exactly one owning worker, so the resolve's scatter
          // is write-disjoint across workers.
          for (std::size_t i = 0; i < probes; ++i) {
            const std::uint32_t shard = static_cast<std::uint32_t>(
                space.shard_of(locs[i], routing.shards));
            if (shard >= own_lo && shard < own_hi) {
              wk.queue.push(static_cast<std::uint32_t>(i), locs[i], shard);
            }
          }
          detail::resolve_shard_queue(space, routing, own_lo, own_hi, wk,
                                      bins);
        });
      }
    };

    // Nothing to pipeline for an empty run — and the prologue below would
    // otherwise enqueue resolve tasks that outlive this frame's routing
    // and scratch (the block loop that waits on them never executes).
    if (nblocks == 0) return result;

    // Software pipeline over double buffers: while the workers resolve
    // block b+1, the main thread places block b. Sampling always happens
    // in block order on the main thread, so the engine draw order is
    // fixed regardless of threads/shards.
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

/// Convenience: per-trial max loads from the sharded engine.
template <ShardableSpace S>
[[nodiscard]] std::vector<std::uint32_t> sharded_max_loads(
    const S& space, const ProcessOptions& opt, std::uint64_t trials,
    std::uint64_t master_seed, const ShardedOptions& sharded = {}) {
  const auto runs =
      run_sharded_trials(space, opt, trials, master_seed, sharded);
  std::vector<std::uint32_t> maxima(runs.size());
  std::transform(runs.begin(), runs.end(), maxima.begin(),
                 [](const ProcessResult& r) { return r.max_load; });
  return maxima;
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
