// timer_wheel.hpp — a fixed-slot timer wheel for the real-world
// transport.
//
// Both transports need cheap, cancellable retransmit timers: every
// in-flight operation arms one, and almost every one is cancelled (the
// reply usually arrives first). A heap would pay O(log n) per arm and
// leave cancelled entries to sift; the wheel pays O(1) for both. Time is
// abstract ticks (the caller maps its clock — UdpTransport uses
// milliseconds of CLOCK_MONOTONIC, SimNetwork milliseconds of simulated
// time), entries live in a core::ObjectPool, and cancel() is just a pool
// release: when the slot's tick comes around, the stale generation makes
// try_get return nullptr and the entry is skipped. Deadlines farther out
// than one revolution (kSlots ticks) stay parked in their slot and
// re-queue each lap. A wheel with nothing armed jumps to any tick at once.
//
// Not thread-safe — it belongs to the transport's single event-loop
// thread, like everything else in that world.
#pragma once

#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/object_pool.hpp"

namespace geochoice::net {

template <typename Payload>
class TimerWheel {
 public:
  struct Entry {
    std::uint64_t deadline = 0;
    Payload payload{};
  };
  using Pool = core::ObjectPool<Entry>;
  using Id = typename Pool::Handle;

  static constexpr std::size_t kSlots = 256;

  explicit TimerWheel(std::uint64_t start_tick = 0) : now_(start_tick) {}

  /// Arm a timer `delay` ticks from now (0 fires on the next advance).
  /// The returned Id stays valid until the timer fires or is cancelled.
  Id schedule(std::uint64_t delay, Payload payload) {
    // A zero delay would land in the current tick's slot — already swept,
    // so it would wait a whole lap. One tick is the soonest anything fires.
    const std::uint64_t deadline = now_ + (delay == 0 ? 1 : delay);
    const Id id = pool_.emplace(Entry{deadline, std::move(payload)});
    slots_[slot_of(deadline)].push_back(id.pack());
    return id;
  }

  /// Disarm. Stale ids (already fired or cancelled) are rejected loudly —
  /// a double cancel is a bookkeeping bug in the caller.
  void cancel(Id id) { pool_.release(id); }

  /// True while the timer has neither fired nor been cancelled.
  [[nodiscard]] bool armed(Id id) const noexcept { return pool_.alive(id); }

  /// Advance to `now_tick`, invoking `on_fire(payload)` for every timer
  /// whose deadline has passed, in tick order (order within one tick is
  /// arming order). on_fire may schedule new timers; they land in future
  /// slots and fire on a later advance even if due this tick.
  template <typename F>
  void advance(std::uint64_t now_tick, F&& on_fire) {
    if (pool_.live() == 0) {  // parked entries are all cancelled: jump
      if (now_tick > now_) {
        for (auto& slot : slots_) slot.clear();
        now_ = now_tick;
      }
      return;
    }
    while (now_ < now_tick) {
      ++now_;
      auto& slot = slots_[slot_of(now_)];
      scratch_.clear();
      scratch_.swap(slot);  // on_fire may push into this same slot
      for (const std::uint64_t packed : scratch_) {
        const Id id = Id::unpack(packed);
        Entry* e = pool_.try_get(id);
        if (e == nullptr) continue;  // cancelled
        if (e->deadline > now_) {
          slots_[slot_of(e->deadline)].push_back(packed);  // next lap
          continue;
        }
        Payload payload = std::move(e->payload);
        pool_.release(id);
        on_fire(payload);
      }
    }
  }

  [[nodiscard]] std::uint64_t now() const noexcept { return now_; }
  /// Armed timers (cancelled ones leave immediately).
  [[nodiscard]] std::size_t pending() const noexcept { return pool_.live(); }

 private:
  [[nodiscard]] static constexpr std::size_t slot_of(
      std::uint64_t tick) noexcept {
    return static_cast<std::size_t>(tick % kSlots);
  }

  std::uint64_t now_;
  Pool pool_;
  std::array<std::vector<std::uint64_t>, kSlots> slots_{};
  std::vector<std::uint64_t> scratch_;
};

}  // namespace geochoice::net
