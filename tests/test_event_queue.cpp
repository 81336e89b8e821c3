// Differential tests for the calendar-queue scheduler (net/event_queue.hpp).
//
// HeapEventQueue is the executable ordering specification: every test
// drives it and the calendar EventQueue with the same push/pop schedule
// and demands bit-identical pop sequences — (time, seq, payload) triples —
// including across the calendar's resize boundaries and its pathological
// regimes (every event at one timestamp, geometrically exploding gaps,
// far-future outliers, rewinds behind the pop cursor).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "net/event_queue.hpp"
#include "rng/rng.hpp"

namespace gn = geochoice::net;
namespace gr = geochoice::rng;

namespace {

struct Popped {
  gn::SimTime time;
  std::uint64_t seq;
  int payload;

  friend bool operator==(const Popped&, const Popped&) = default;
};

/// Feed the same schedule to both queues; `hold` interleaves a pop after
/// every push beyond the first `prefill` (the classic hold model), else
/// everything is pushed first. Returns (calendar pops, heap pops).
std::pair<std::vector<Popped>, std::vector<Popped>> run_both(
    const std::vector<gn::SimTime>& times, std::size_t prefill = 0) {
  gn::EventQueue<int> cal;
  gn::HeapEventQueue<int> heap;
  std::vector<Popped> cal_out, heap_out;
  auto pop_one = [&] {
    const auto c = cal.pop();
    const auto h = heap.pop();
    cal_out.push_back({c.time, c.seq, c.payload});
    heap_out.push_back({h.time, h.seq, h.payload});
  };
  for (std::size_t i = 0; i < times.size(); ++i) {
    cal.push(times[i], static_cast<int>(i));
    heap.push(times[i], static_cast<int>(i));
    if (prefill != 0 && i >= prefill) pop_one();
  }
  while (!cal.empty()) pop_one();
  EXPECT_TRUE(heap.empty());
  return {cal_out, heap_out};
}

}  // namespace

TEST(CalendarQueue, MatchesHeapOnRandomSchedule) {
  gr::DefaultEngine gen(1);
  std::vector<gn::SimTime> times;
  for (int i = 0; i < 5000; ++i) {
    // Coarse grid => plenty of exact time ties exercising the seq order.
    times.push_back(std::floor(gr::uniform01(gen) * 64.0));
  }
  const auto [cal, heap] = run_both(times);
  EXPECT_EQ(cal, heap);
}

TEST(CalendarQueue, MatchesHeapUnderHoldModel) {
  // The DES access pattern: a near-constant population with monotonically
  // advancing times, crossing grow and shrink boundaries as the window
  // ramps. Pops interleave pushes, so the pop cursor is always mid-stream.
  gr::DefaultEngine gen(2);
  gn::EventQueue<int> cal;
  gn::HeapEventQueue<int> heap;
  gn::SimTime now = 0.0;
  std::vector<gn::SimTime> pending;
  int id = 0;
  auto push = [&](gn::SimTime t) {
    cal.push(t, id);
    heap.push(t, id);
    ++id;
  };
  for (int i = 0; i < 256; ++i) push(gr::uniform01(gen));
  for (int step = 0; step < 20000; ++step) {
    const auto c = cal.pop();
    const auto h = heap.pop();
    ASSERT_EQ(c.time, h.time) << "step " << step;
    ASSERT_EQ(c.seq, h.seq) << "step " << step;
    ASSERT_EQ(c.payload, h.payload) << "step " << step;
    now = c.time;
    // Exponential-ish gaps: -log(u) spans several orders of magnitude.
    push(now - std::log(gr::uniform01(gen) + 1e-12));
  }
  EXPECT_GT(cal.resizes(), 0u);
}

TEST(CalendarQueue, MatchesHeapWhenAllEventsAreSimultaneous) {
  // Width cannot separate equal timestamps: one bucket swallows the whole
  // queue, and FIFO-among-ties must still hold through resizes.
  std::vector<gn::SimTime> times(4096, 3.25);
  const auto [cal, heap] = run_both(times);
  EXPECT_EQ(cal, heap);
  for (std::size_t i = 1; i < cal.size(); ++i) {
    EXPECT_LT(cal[i - 1].seq, cal[i].seq);  // schedule order among ties
  }
}

TEST(CalendarQueue, MatchesHeapOnGeometricOverflowSchedule) {
  // Times 2^0 .. 2^300: each event outgrows the calendar's current year,
  // overflowing into wrapped buckets and eventually the far-day clamp.
  std::vector<gn::SimTime> times;
  for (int k = 0; k < 300; ++k) times.push_back(std::ldexp(1.0, k));
  // Interleave near-past duplicates so buckets hold mixed years.
  for (int k = 0; k < 300; k += 7) times.push_back(std::ldexp(1.0, k));
  const auto [cal, heap] = run_both(times);
  EXPECT_EQ(cal, heap);
}

TEST(CalendarQueue, MatchesHeapWithFarFutureOutliers) {
  gr::DefaultEngine gen(3);
  std::vector<gn::SimTime> times;
  for (int i = 0; i < 1000; ++i) times.push_back(gr::uniform01(gen));
  times.push_back(1e18);  // beyond any sane year
  times.push_back(1e300);
  for (int i = 0; i < 1000; ++i) times.push_back(1.0 + gr::uniform01(gen));
  const auto [cal, heap] = run_both(times);
  EXPECT_EQ(cal, heap);
}

TEST(CalendarQueue, MatchesHeapOnRewindPushes) {
  // A DES never schedules into the past, but the queue contract allows it:
  // pushes behind the pop cursor must rewind it, not vanish.
  gn::EventQueue<int> cal;
  gn::HeapEventQueue<int> heap;
  auto push = [&](gn::SimTime t, int v) {
    cal.push(t, v);
    heap.push(t, v);
  };
  push(100.0, 0);
  push(200.0, 1);
  auto c = cal.pop();
  auto h = heap.pop();
  EXPECT_EQ(c.payload, h.payload);
  push(5.0, 2);   // far behind the cursor (day 100)
  push(-3.0, 3);  // negative time: files under day 0
  std::vector<int> cal_rest, heap_rest;
  while (!cal.empty()) cal_rest.push_back(cal.pop().payload);
  while (!heap.empty()) heap_rest.push_back(heap.pop().payload);
  EXPECT_EQ(cal_rest, heap_rest);
  EXPECT_EQ(cal_rest, (std::vector<int>{3, 2, 1}));
}

TEST(CalendarQueue, MatchesHeapWithZeroDelayPushes) {
  // The DES's zero-delay sends land at the time of the last pop and skip
  // the calendar for the FIFO lane. Mix them with coarse-grid pushes (so
  // calendar events tie with the lane's time, some scheduled before the
  // lane's events and some after), rewinds behind the cursor, and peeks
  // a push invalidates: the pop order must stay the heap's.
  gr::DefaultEngine gen(6);
  gn::EventQueue<int> cal;
  gn::HeapEventQueue<int> heap;
  int id = 0;
  auto push = [&](gn::SimTime t) {
    cal.push(t, id);
    heap.push(t, id);
    ++id;
  };
  for (int i = 0; i < 64; ++i) push(std::floor(gr::uniform01(gen) * 8.0));
  std::uint64_t lane_pushes = 0;
  for (int step = 0; step < 20000 && !heap.empty(); ++step) {
    if (step % 7 == 0) {
      ASSERT_EQ(cal.next_time(), heap.top().time) << "step " << step;
    }
    const auto c = cal.pop();
    const auto h = heap.pop();
    ASSERT_EQ(c.time, h.time) << "step " << step;
    ASSERT_EQ(c.seq, h.seq) << "step " << step;
    ASSERT_EQ(c.payload, h.payload) << "step " << step;
    const double u = gr::uniform01(gen);
    if (u < 0.4) {
      push(c.time);  // zero delay
      ++lane_pushes;
      if (u < 0.1) push(c.time);
    } else if (u < 0.45) {
      push(c.time - 1.0);  // rewind
    } else if (u < 0.95) {
      push(c.time + std::floor(gr::uniform01(gen) * 4.0));  // ties likely
    }
    ASSERT_EQ(cal.size(), heap.size()) << "step " << step;
  }
  EXPECT_GT(lane_pushes, 1000u);
  while (!heap.empty()) {
    const auto c = cal.pop();
    const auto h = heap.pop();
    ASSERT_EQ(c.seq, h.seq);
  }
  EXPECT_TRUE(cal.empty());
}

TEST(CalendarQueue, ResizeBoundariesAreExercisedAndExact) {
  // Ramp 0 -> 6000 -> 0 events: forces several grows on the way up and
  // shrinks on the way down, with mixed timescales so the re-derived
  // widths actually change.
  gr::DefaultEngine gen(4);
  std::vector<gn::SimTime> times;
  for (int i = 0; i < 6000; ++i) {
    times.push_back(gr::uniform01(gen) * std::ldexp(1.0, i % 24));
  }
  gn::EventQueue<int> cal;
  gn::HeapEventQueue<int> heap;
  for (std::size_t i = 0; i < times.size(); ++i) {
    cal.push(times[i], static_cast<int>(i));
    heap.push(times[i], static_cast<int>(i));
  }
  const std::size_t grown_buckets = cal.bucket_count();
  EXPECT_GE(grown_buckets, 6000u / 2u);  // grow kept occupancy <= 2
  while (!cal.empty()) {
    const auto c = cal.pop();
    const auto h = heap.pop();
    ASSERT_EQ(c.time, h.time);
    ASSERT_EQ(c.seq, h.seq);
    ASSERT_EQ(c.payload, h.payload);
  }
  EXPECT_LT(cal.bucket_count(), grown_buckets);  // shrank on the way down
  EXPECT_GT(cal.resizes(), 2u);
}

TEST(CalendarQueue, SteadyStateHoldAllocatesNothingNew) {
  // After a warm-up lap at a fixed population, bucket storage is at its
  // high-water mark: a further lap must not
  // resize the calendar (the proxy for "no allocation in the hot loop";
  // the ASan job keeps it honest on the real simulator).
  gr::DefaultEngine gen(5);
  gn::EventQueue<int> q;
  gn::SimTime now = 0.0;
  for (int i = 0; i < 64; ++i) q.push(gr::uniform01(gen), i);
  for (int i = 0; i < 4096; ++i) {
    now = q.pop().time;
    q.push(now + gr::uniform01(gen), i);
  }
  const auto resizes_before = q.resizes();
  const auto buckets_before = q.bucket_count();
  for (int i = 0; i < 4096; ++i) {
    now = q.pop().time;
    q.push(now + gr::uniform01(gen), i);
  }
  EXPECT_EQ(q.resizes(), resizes_before);
  EXPECT_EQ(q.bucket_count(), buckets_before);
}

TEST(CalendarQueue, SizeAndScheduledTrackTheHeap) {
  gn::EventQueue<int> cal;
  EXPECT_TRUE(cal.empty());
  cal.push(1.0, 1);
  cal.push(0.5, 2);
  EXPECT_EQ(cal.size(), 2u);
  EXPECT_EQ(cal.scheduled(), 2u);
  const auto e = cal.pop();
  EXPECT_EQ(e.payload, 2);
  EXPECT_EQ(e.seq, 1u);
  EXPECT_EQ(cal.size(), 1u);
  EXPECT_EQ(cal.scheduled(), 2u);  // pops don't consume sequence numbers
}
