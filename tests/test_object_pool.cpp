// Tests for core::ObjectPool — the free-list pool with generation-checked
// handles that backs the network simulator's messages and in-flight op
// records. Covers slot reuse, generation staleness, growth, handle
// packing, and (under the ASan CI job) leak-freedom when a pool or a
// simulator is torn down with objects still live.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/object_pool.hpp"
#include "net/net.hpp"

namespace gc = geochoice::core;
namespace gn = geochoice::net;

TEST(ObjectPool, EmplaceGetRelease) {
  gc::ObjectPool<int> pool;
  const auto h = pool.emplace(42);
  EXPECT_EQ(pool.live(), 1u);
  EXPECT_EQ(pool.get(h), 42);
  pool.get(h) = 7;
  EXPECT_EQ(pool.get(h), 7);
  pool.release(h);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPool, StaleHandleIsDetected) {
  gc::ObjectPool<int> pool;
  const auto h = pool.emplace(1);
  pool.release(h);
  EXPECT_FALSE(pool.alive(h));
  EXPECT_EQ(pool.try_get(h), nullptr);
  EXPECT_THROW((void)pool.get(h), std::logic_error);
  EXPECT_THROW(pool.release(h), std::logic_error);  // double release

  // The recycled slot has a new generation: the old handle must not alias
  // the new tenant even though the index matches.
  const auto h2 = pool.emplace(2);
  EXPECT_EQ(h2.index, h.index);
  EXPECT_NE(h2.generation, h.generation);
  EXPECT_EQ(pool.try_get(h), nullptr);
  EXPECT_EQ(pool.get(h2), 2);
}

TEST(ObjectPool, NeverValidHandleIsRejected) {
  gc::ObjectPool<int> pool;
  EXPECT_EQ(pool.try_get({}), nullptr);
  EXPECT_THROW((void)pool.get(gc::ObjectPool<int>::Handle{5, 0}),
               std::logic_error);
}

TEST(ObjectPool, ReuseIsLifoAndCapacityIsHighWaterMark) {
  gc::ObjectPool<int> pool;
  std::vector<gc::ObjectPool<int>::Handle> hs;
  for (int i = 0; i < 8; ++i) hs.push_back(pool.emplace(i));
  EXPECT_EQ(pool.capacity(), 8u);
  pool.release(hs[2]);
  pool.release(hs[5]);
  // LIFO free list: the most recently released slot is reused first, so
  // allocation order is a pure function of the op sequence (determinism).
  EXPECT_EQ(pool.emplace(100).index, hs[5].index);
  EXPECT_EQ(pool.emplace(101).index, hs[2].index);
  EXPECT_EQ(pool.capacity(), 8u);  // no growth: slots were recycled
  EXPECT_EQ(pool.live(), 8u);
}

TEST(ObjectPool, GrowsBeyondReserve) {
  gc::ObjectPool<std::vector<int>> pool(2);
  std::vector<gc::ObjectPool<std::vector<int>>::Handle> hs;
  for (int i = 0; i < 100; ++i) {
    hs.push_back(pool.emplace(std::size_t{16}, i));
  }
  EXPECT_EQ(pool.live(), 100u);
  EXPECT_GE(pool.capacity(), 100u);
  for (std::size_t i = 0; i < hs.size(); ++i) {
    EXPECT_EQ(pool.get(hs[i]).front(), static_cast<int>(i));
  }
  for (const auto& h : hs) pool.release(h);
  EXPECT_EQ(pool.live(), 0u);
}

TEST(ObjectPool, HandlePackRoundTrips) {
  using Handle = gc::ObjectPool<int>::Handle;
  const Handle h{0x12345678u, 0x9abcdef0u};
  EXPECT_EQ(Handle::unpack(h.pack()), h);
  EXPECT_EQ(Handle::unpack(Handle{}.pack()), Handle{});
}

TEST(ObjectPool, ReleaseRunsDestructors) {
  // shared_ptr use_count observes the slot's destructor directly.
  auto sentinel = std::make_shared<int>(1);
  gc::ObjectPool<std::shared_ptr<int>> pool;
  const auto h = pool.emplace(sentinel);
  EXPECT_EQ(sentinel.use_count(), 2);
  pool.release(h);
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(ObjectPool, TeardownWithLiveObjectsIsLeakFree) {
  // Owning payloads make any leaked slot visible to the ASan job.
  auto sentinel = std::make_shared<int>(7);
  {
    gc::ObjectPool<std::shared_ptr<int>> pool;
    (void)pool.emplace(sentinel);
    (void)pool.emplace(sentinel);
    EXPECT_EQ(sentinel.use_count(), 3);
    // Destroyed with both objects still live.
  }
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(ObjectPool, SimulatorTeardownMidFlightIsClean) {
  // Stop the event loop with operations (and their pooled op records plus
  // queued messages) still in flight, then tear everything down. The ASan
  // CI job turns any pool/queue leak or use-after-free here into a
  // failure; the assertions below pin that the run really did stop early.
  gn::NetConfig cfg;
  cfg.nodes = 64;
  cfg.keys = 256;
  cfg.window = 16;
  cfg.lookups = 64;
  cfg.max_events = 100;
  const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
  gn::NetSimulator sim(ring, cfg);
  const auto m = sim.run();
  EXPECT_EQ(m.events, cfg.max_events);
  EXPECT_LT(m.client.inserts, cfg.keys);  // genuinely mid-flight
}

TEST(ObjectPool, BoundedRunIsAPrefixOfTheFullRun) {
  // max_events must not perturb the schedule: the bounded run's trace is
  // exactly the first max_events entries of the unbounded trace.
  gn::NetConfig cfg;
  cfg.nodes = 64;
  cfg.keys = 128;
  cfg.window = 8;
  cfg.latency = gn::LatencyModel::uniform(0.5, 1.5);
  cfg.collect_trace = true;
  const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
  gn::NetSimulator full(ring, cfg);
  (void)full.run();
  auto bounded_cfg = cfg;
  bounded_cfg.max_events = 50;
  gn::NetSimulator bounded(ring, bounded_cfg);
  (void)bounded.run();
  ASSERT_EQ(bounded.trace().size(), 50u);
  ASSERT_GE(full.trace().size(), 50u);
  for (std::size_t i = 0; i < 50; ++i) {
    EXPECT_TRUE(bounded.trace()[i] == full.trace()[i]) << "event " << i;
  }
}

TEST(ObjectPool, ForEachVisitsLiveObjectsInSlotOrder) {
  gc::ObjectPool<int> pool;
  const auto a = pool.emplace(10);
  const auto b = pool.emplace(20);
  const auto c = pool.emplace(30);
  pool.release(b);  // a hole mid-slab must be skipped, not visited
  std::vector<int> seen;
  pool.for_each([&](gc::ObjectPool<int>::Handle h, int& v) {
    EXPECT_TRUE(pool.alive(h));
    seen.push_back(v);
  });
  EXPECT_EQ(seen, (std::vector<int>{10, 30}));
  // Recycling the hole (LIFO) restores slot order 10, 40, 30 — the visit
  // order is the slot order, not the emplace order.
  const auto d = pool.emplace(40);
  seen.clear();
  const auto& cpool = pool;
  cpool.for_each([&](gc::ObjectPool<int>::Handle, const int& v) {
    seen.push_back(v);
  });
  EXPECT_EQ(seen, (std::vector<int>{10, 40, 30}));
  pool.release(a);
  pool.release(c);
  pool.release(d);
}
