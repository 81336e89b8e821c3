// shard_queues.hpp — per-worker gather queues for shard-routed batch work.
//
// The sharded allocation engine cuts the space into one contiguous shard
// per worker. Per block, every worker scans the block's probe buffer,
// gathers the probes of its shard into its private queue, resolves the
// queue (reading a working set ~1/workers of the full structure), and
// scatters results into the shared output by slot — each output slot has
// exactly one owner, so the parallel phase is write-disjoint by
// construction.
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

}  // namespace geochoice::parallel
