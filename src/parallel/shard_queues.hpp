// shard_queues.hpp — per-worker gather queues for shard-routed batch work.
//
// The sharded allocation engine cuts the space into one contiguous shard
// per worker. Per block, every worker scans the block's probe buffer,
// gathers the probes of its shard into its private queue, resolves the
// queue (reading a working set ~1/workers of the full structure), and
// scatters results into the shared output by slot — each output slot has
// exactly one owner, so the parallel phase is write-disjoint by
// construction. The parallel network simulator gives each worker a
// contiguous range of ring shards instead (shard_begin).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace geochoice::parallel {

/// A worker's private gather queue: block slots it owns plus their
/// payloads, reused across blocks (clear() keeps capacity).
template <typename Item>
struct ShardQueue {
  std::vector<std::uint32_t> slots;  // positions in the source block
  std::vector<Item> items;           // gathered payloads, queue order

  void clear() noexcept {
    slots.clear();
    items.clear();
  }
  [[nodiscard]] std::size_t size() const noexcept { return slots.size(); }
  void push(std::uint32_t slot, const Item& item) {
    slots.push_back(slot);
    items.push_back(item);
  }
};

/// Shard range owned by worker `w`: [shard_begin(w), shard_begin(w+1)),
/// i.e. shard s belongs to the worker with s*workers/shards == w. Ranges
/// are contiguous, so each worker's probes occupy one contiguous region of
/// the space. Requires 0 < workers; w may equal workers (yields `shards`,
/// the end sentinel).
[[nodiscard]] inline std::uint32_t shard_begin(std::size_t w,
                                               std::uint32_t shards,
                                               std::size_t workers) noexcept {
  return static_cast<std::uint32_t>(
      (static_cast<std::uint64_t>(w) * shards + workers - 1) / workers);
}

}  // namespace geochoice::parallel
