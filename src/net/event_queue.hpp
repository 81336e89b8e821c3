// event_queue.hpp — the deterministic heart of the discrete-event
// simulator.
//
// A discrete-event simulation is only reproducible if simultaneous events
// execute in a defined order. Both schedulers here therefore order events
// by (time, sequence): `sequence` is a monotonically increasing counter
// assigned at push() time, so events scheduled for the same instant pop in
// schedule order — FIFO among ties, independent of scheduler internals,
// host timing, or thread count. Combined with substream-seeded randomness
// (rng/streams.hpp) this makes an entire simulation a pure function of
// (seed, config).
//
// EventQueue is a calendar queue (Brown 1988): a power-of-two array of
// bucket "days", each `width` units of simulated time wide, wrapping every
// `nbuckets * width` units (one "year"). push() drops an event into the
// bucket of its day, kept sorted by (time, seq); pop() walks days forward
// from the last pop. Under the steady schedules a DES produces, both are
// O(1) — against the former std::priority_queue's O(log n) sift with
// full-payload swaps, this is where the simulator's 2x+ event-rate comes
// from. Two mechanisms keep the O(1) honest on hostile schedules:
//
//   * resize: when occupancy leaves [1/2, 2] events per bucket the
//     calendar re-buckets to a power-of-two count fitting the queue, and
//     re-derives the day width from the live events' time span, so the
//     queue adapts to whatever spacing the latency model produces;
//   * a direct-search fallback: when one full year of days holds nothing
//     (far-future gaps, clamped days), pop scans bucket heads for the
//     global minimum instead of spinning through empty years;
//   * grow damping: when a resize scan finds every live event at one
//     timestamp (a flood), growing the calendar cannot spread them — no
//     width separates equal times — so the grow is refused and the next
//     attempt deferred until the queue doubles again. Without the guard a
//     flood pays a full collect-and-redistribute at every power of two,
//     which is where the calendar used to trail the heap on the flood
//     bench (BENCH_event_queue.json's calendar_vs_heap_flood).
//
// Payloads live in a core::ObjectPool slab, so bucket entries are 24-byte
// (time, seq, handle) records — cheap to shift during sorted insert — and
// a drained-and-refilled queue allocates nothing in steady state.
//
// HeapEventQueue is the original binary-heap scheduler, kept as the
// executable ordering specification: tests drive both with identical
// schedules and demand identical pop sequences, and bench/event_queue_bench
// measures the calendar's speedup over it.
//
// The surface is push / pop / size and nothing windowed: the one drive
// loop (NetSimulator::run) pops a single event at a time, so there is no
// peek-the-minimum, drain-up-to-a-bound or fill-a-payload-in-place API.
// A parallel engine that wants those would need a different determinism
// contract first (ROADMAP item 1 has the note).
#pragma once

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <queue>
#include <utility>
#include <vector>

#include "core/object_pool.hpp"

namespace geochoice::net {

/// Simulated clock. Unitless; latency models define the scale.
using SimTime = double;

/// The original (time, seq) min-heap scheduler. Same contract as
/// EventQueue; kept as the reference implementation the calendar queue is
/// differentially tested and benchmarked against.
template <typename Payload>
class HeapEventQueue {
 public:
  struct Event {
    SimTime time = 0.0;
    std::uint64_t seq = 0;  // tie-breaker: schedule order
    Payload payload;
  };

  /// Schedule `payload` at absolute time `t`.
  void push(SimTime t, Payload payload) {
    heap_.push(Event{t, next_seq_++, std::move(payload)});
  }

  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return heap_.size(); }

  /// Earliest event; among equal times, the one scheduled first.
  [[nodiscard]] const Event& top() const { return heap_.top(); }

  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

  /// Total events ever scheduled (the sequence counter).
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

 private:
  struct Later {
    bool operator()(const Event& a, const Event& b) const noexcept {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };

  std::priority_queue<Event, std::vector<Event>, Later> heap_;
  std::uint64_t next_seq_ = 0;
};

/// Calendar-queue scheduler. Pops in exactly (time, seq) order — the same
/// total order as HeapEventQueue — at amortized O(1) per operation.
template <typename Payload>
class EventQueue {
 public:
  struct Event {
    SimTime time = 0.0;
    std::uint64_t seq = 0;  // tie-breaker: schedule order
    Payload payload;
  };

  /// `width_hint` seeds the day width (rounded to a power of two): pass
  /// the expected spacing between consecutive events — e.g. the latency
  /// model's mean delay over the number of operations in flight. Any
  /// positive value is safe; resize re-derives the width from the live
  /// schedule as soon as the queue has seen real spacings.
  explicit EventQueue(SimTime width_hint = 1.0) {
    set_width(pow2_at_least(width_hint > 0.0 ? width_hint : 1.0));
    buckets_.resize(kMinBuckets);
  }

  /// Schedule `payload` at absolute time `t`.
  void push(SimTime t, Payload payload) {
    insert_entry(Entry{t, next_seq_++, pool_.emplace(std::move(payload))});
    ++size_;
    if (size_ > buckets_.size() * 2 && size_ > grow_guard_) {
      rebucket(buckets_.size() * 2);
    }
  }

  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// Earliest event; among equal times, the one scheduled first.
  /// Precondition: !empty().
  Event pop() {
    assert(size_ > 0);
    Bucket& b = find_min_bucket();
    const Entry e = b.take_front();
    --size_;
    Event out{e.time, e.seq, std::move(pool_.get(e.handle))};
    pool_.release(e.handle);
    if (buckets_.size() > kMinBuckets && size_ < buckets_.size() / 2) {
      rebucket(buckets_.size() / 2);
    }
    return out;
  }

  /// Total events ever scheduled (the sequence counter).
  [[nodiscard]] std::uint64_t scheduled() const noexcept { return next_seq_; }

  // Introspection (tests / bench): current calendar geometry.
  [[nodiscard]] std::size_t bucket_count() const noexcept {
    return buckets_.size();
  }
  [[nodiscard]] SimTime bucket_width() const noexcept { return width_; }
  [[nodiscard]] std::uint64_t resizes() const noexcept { return resizes_; }

 private:
  using Handle = typename core::ObjectPool<Payload>::Handle;

  struct Entry {
    SimTime time = 0.0;
    std::uint64_t seq = 0;
    Handle handle;
  };

  /// A day's events, sorted ascending by (time, seq). `head` is a popped
  /// prefix, compacted lazily so draining a flooded bucket (every event at
  /// one timestamp) stays amortized O(1) instead of O(n) per pop.
  struct Bucket {
    std::vector<Entry> v;
    std::size_t head = 0;

    [[nodiscard]] bool empty() const noexcept { return head == v.size(); }
    [[nodiscard]] const Entry& front() const noexcept { return v[head]; }

    Entry take_front() {
      Entry e = v[head++];
      if (head == v.size()) {
        v.clear();
        head = 0;
      } else if (head >= 64 && head * 2 >= v.size()) {
        v.erase(v.begin(),
                v.begin() + static_cast<std::ptrdiff_t>(head));
        head = 0;
      }
      return e;
    }
  };

  static constexpr std::size_t kMinBuckets = 16;  // power of two
  /// Times at or beyond 2^62 days collapse onto one sentinel day: their
  /// bucket ordering stays exact (same comparisons), only the day-walk
  /// shortcut stops discriminating them — the direct-search fallback does.
  static constexpr std::uint64_t kFarDay = std::uint64_t{1} << 62;

  static SimTime pow2_at_least(SimTime x) noexcept {
    int e = 0;
    const double m = std::frexp(x, &e);  // x = m * 2^e, m in [0.5, 1)
    return std::ldexp(1.0, m > 0.5 ? e : e - 1);
  }

  void set_width(SimTime w) noexcept {
    // Clamp to a sane power-of-two range; 1/w is then exact.
    w = std::min(std::max(w, std::ldexp(1.0, -64)), std::ldexp(1.0, 64));
    width_ = w;
    inv_width_ = 1.0 / w;
  }

  /// Day number of time `t`: floor(t / width), clamped into [0, kFarDay].
  /// Exact (width is a power of two), and the same function push and pop
  /// use — an event is found on exactly the day it was filed under.
  [[nodiscard]] std::uint64_t day_of(SimTime t) const noexcept {
    const double d = t * inv_width_;
    if (!(d > 0.0)) return 0;  // negative times and NaN file under day 0
    if (d >= static_cast<double>(kFarDay)) return kFarDay;
    return static_cast<std::uint64_t>(d);
  }

  void insert_entry(const Entry& e) {
    const std::uint64_t day = day_of(e.time);
    // An event scheduled before the pop cursor (possible for generic
    // callers; a DES never rewinds) moves the cursor back so the day walk
    // cannot miss it.
    if (day < cur_day_) cur_day_ = day;
    Bucket& b = buckets_[day & (buckets_.size() - 1)];
    // Sorted insert, scanning from the back: schedules are near-FIFO per
    // bucket (and exactly FIFO among equal times, seq being monotonic), so
    // this is almost always a straight append.
    std::size_t pos = b.v.size();
    while (pos > b.head && (b.v[pos - 1].time > e.time ||
                            (b.v[pos - 1].time == e.time &&
                             b.v[pos - 1].seq > e.seq))) {
      --pos;
    }
    b.v.insert(b.v.begin() + static_cast<std::ptrdiff_t>(pos), e);
  }

  /// Bucket holding the global (time, seq) minimum; advances the day
  /// cursor to it. Precondition: size_ > 0.
  Bucket& find_min_bucket() {
    const std::size_t mask = buckets_.size() - 1;
    // Walk days forward from the cursor, one year at most. A bucket's head
    // belongs to the walked day iff day_of(head) matches: heads from later
    // years wait their turn, and earlier days are impossible (the cursor
    // rewinds on push).
    for (std::size_t k = 0; k < buckets_.size(); ++k) {
      const std::uint64_t day = cur_day_ + k;
      Bucket& b = buckets_[day & mask];
      if (!b.empty() && day_of(b.front().time) == day) {
        cur_day_ = day;
        return b;
      }
    }
    // A whole year of silence: jump straight to the earliest head.
    Bucket* best = nullptr;
    for (Bucket& b : buckets_) {
      if (b.empty()) continue;
      if (best == nullptr || b.front().time < best->front().time ||
          (b.front().time == best->front().time &&
           b.front().seq < best->front().seq)) {
        best = &b;
      }
    }
    assert(best != nullptr);
    cur_day_ = day_of(best->front().time);
    return *best;
  }

  void rebucket(std::size_t new_count) {
    std::vector<Entry> all;
    all.reserve(size_);
    SimTime lo = 0.0, hi = 0.0;
    bool first = true;
    for (Bucket& b : buckets_) {
      for (std::size_t i = b.head; i < b.v.size(); ++i) {
        const Entry& e = b.v[i];
        if (first || e.time < lo) lo = e.time;
        if (first || e.time > hi) hi = e.time;
        first = false;
        all.push_back(e);
      }
      b.v.clear();
      b.head = 0;
    }
    // Re-derive the day width so the live span fits inside one year with
    // about one event per bucket. A degenerate span (all events
    // simultaneous) keeps the current width: no width can separate them —
    // and if this was a grow, a bigger calendar would only spread the
    // flood across more empty buckets and re-trigger on the very next
    // push. Refuse the grow and defer the next attempt until the queue
    // doubles again (geometric backoff: O(log n) redistributes total
    // instead of one per power of two).
    if (all.size() >= 2 && hi > lo) {
      set_width(pow2_at_least((hi - lo) / static_cast<double>(new_count)));
      grow_guard_ = 0;
    } else if (new_count > buckets_.size() && all.size() >= 2) {
      new_count = buckets_.size();
      grow_guard_ = size_ * 2;
    }
    buckets_.resize(new_count);
    std::sort(all.begin(), all.end(), [](const Entry& a, const Entry& b) {
      if (a.time != b.time) return a.time < b.time;
      return a.seq < b.seq;
    });
    // Appending in global sorted order keeps every bucket sorted.
    const std::size_t mask = buckets_.size() - 1;
    for (const Entry& e : all) {
      buckets_[day_of(e.time) & mask].v.push_back(e);
    }
    cur_day_ = all.empty() ? 0 : day_of(all.front().time);
    ++resizes_;
  }

  core::ObjectPool<Payload> pool_;
  std::vector<Bucket> buckets_;  // size is a power of two
  SimTime width_ = 1.0;
  SimTime inv_width_ = 1.0;
  std::uint64_t cur_day_ = 0;  // day of the last pop (or earlier)
  std::size_t size_ = 0;
  /// Flood damping: after a refused degenerate grow, no further grow is
  /// attempted until size_ exceeds this. 0 = no grow pending deferral.
  std::size_t grow_guard_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t resizes_ = 0;
};

}  // namespace geochoice::net
