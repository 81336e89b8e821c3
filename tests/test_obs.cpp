// test_obs.cpp — the observability layer itself: registry semantics
// (merge across threads, reset, kind mismatch), the runtime toggle's
// no-op guarantee, Span timing, and the trace ring's overwrite/export
// behaviour.
//
// gtest_discover_tests runs every TEST in its own process, so each test
// owns the process-global registry; tests still reset() first so a
// same-process runner (ctest -R with a filter, or the bare binary) stays
// correct. The multi-threaded merge tests carry the ObsRegistry prefix
// CI's TSan job selects on.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/simulator.hpp"
#include "obs/obs.hpp"
#include "parallel/thread_pool.hpp"

namespace {

using namespace geochoice;

#if defined(GEOCHOICE_OBS_ENABLED)

/// Find one metric by name in a snapshot; fails the test when absent.
obs::MetricValue find_metric(const std::vector<obs::MetricValue>& all,
                             const std::string& name) {
  for (const auto& m : all) {
    if (m.name == name) return m;
  }
  ADD_FAILURE() << "metric not in snapshot: " << name;
  return {};
}

/// RAII toggle guard so a failing assertion cannot leak enabled=true
/// into a same-process sibling test.
struct EnabledScope {
  EnabledScope() {
    obs::Registry::global().reset();
    obs::set_enabled(true);
  }
  ~EnabledScope() { obs::set_enabled(false); }
};

TEST(ObsRegistry, CounterMergesAcrossThreads) {
  EnabledScope on;
  static const obs::Counter counter("test.merge");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10'000;
  std::vector<std::thread> pool;
  pool.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& th : pool) th.join();
  const auto m =
      find_metric(obs::Registry::global().snapshot(), "test.merge");
  EXPECT_EQ(m.kind, obs::MetricKind::kCounter);
  EXPECT_EQ(m.count, kThreads * kPerThread);
}

TEST(ObsRegistry, DisabledWritesAreDropped) {
  obs::Registry::global().reset();
  obs::set_enabled(false);
  const obs::Counter counter("test.disabled");
  counter.add(42);
  const auto m =
      find_metric(obs::Registry::global().snapshot(), "test.disabled");
  EXPECT_EQ(m.count, 0u);
}

TEST(ObsRegistry, ResetZeroesButKeepsHandles) {
  EnabledScope on;
  const obs::Counter counter("test.reset");
  counter.add(5);
  obs::Registry::global().reset();
  counter.add(3);  // the pre-reset handle still points at its cell
  const auto m =
      find_metric(obs::Registry::global().snapshot(), "test.reset");
  EXPECT_EQ(m.count, 3u);
}

TEST(ObsRegistry, SameNameSharesACell) {
  EnabledScope on;
  const obs::Counter a("test.shared");
  const obs::Counter b("test.shared");
  a.add(2);
  b.add(3);
  const auto m =
      find_metric(obs::Registry::global().snapshot(), "test.shared");
  EXPECT_EQ(m.count, 5u);
}

TEST(ObsRegistry, KindMismatchThrows) {
  EnabledScope on;
  const obs::Counter counter("test.kind");
  EXPECT_THROW(obs::Gauge("test.kind"), std::invalid_argument);
}

TEST(ObsRegistry, GaugeKeepsLastWriteAndWriteCount) {
  EnabledScope on;
  const obs::Gauge gauge("test.gauge");
  gauge.set(1.5);
  gauge.set(2.5);
  const auto m =
      find_metric(obs::Registry::global().snapshot(), "test.gauge");
  EXPECT_EQ(m.kind, obs::MetricKind::kGauge);
  EXPECT_EQ(m.count, 2u);
  EXPECT_DOUBLE_EQ(m.value, 2.5);
}

TEST(ObsRegistry, HistogramBucketsByUpperBound) {
  EnabledScope on;
  const obs::Histogram hist("test.hist", {1.0, 10.0, 100.0});
  hist.observe(0.5);    // <= 1
  hist.observe(1.0);    // <= 1 (bounds are inclusive upper bounds)
  hist.observe(7.0);    // <= 10
  hist.observe(1000.0); // overflow
  const auto m =
      find_metric(obs::Registry::global().snapshot(), "test.hist");
  EXPECT_EQ(m.kind, obs::MetricKind::kHistogram);
  EXPECT_EQ(m.count, 4u);
  EXPECT_DOUBLE_EQ(m.value, 0.5 + 1.0 + 7.0 + 1000.0);
  ASSERT_EQ(m.buckets.size(), 4u);
  EXPECT_EQ(m.buckets[0], 2u);
  EXPECT_EQ(m.buckets[1], 1u);
  EXPECT_EQ(m.buckets[2], 0u);
  EXPECT_EQ(m.buckets[3], 1u);
}

TEST(ObsRegistry, SpanFeedsItsTimer) {
  EnabledScope on;
  const obs::Timer timer("test.span");
  {
    obs::Span span(timer);
  }
  const auto all = obs::Registry::global().snapshot();
  EXPECT_EQ(find_metric(all, "test.span.calls").count, 1u);
  // Even an empty scope reads the clock twice; the duration is >= 0 by
  // construction, so only the call count is worth pinning.
}

/// Snapshot the store.* metrics as name -> (count, buckets). Durations
/// and sums are wall-clock-dependent; counts and bucket tallies are what
/// the engines must agree on.
std::map<std::string, std::pair<std::uint64_t, std::vector<std::uint64_t>>>
store_counts() {
  std::map<std::string,
           std::pair<std::uint64_t, std::vector<std::uint64_t>>> out;
  for (const auto& m : obs::Registry::global().snapshot()) {
    if (m.name.rfind("store.", 0) != 0) continue;
    if (m.name == "store.resize.ns") continue;  // wall clock
    out[m.name] = {m.count, m.buckets};
  }
  return out;
}

TEST(ObsRegistry, StoreCountersAreWorkerAndShardInvariant) {
  EnabledScope on;
  net::NetConfig cfg;
  cfg.nodes = 16;
  cfg.keys = 1024;  // ~64 keys per 32-bucket store: resizes genuinely run
  cfg.window = 8;
  cfg.lookups = 16;
  cfg.tie = core::TieBreak::kFirstChoice;
  cfg.store_gets = 512;
  const auto ring = net::make_ring(cfg.nodes, cfg.seed, cfg.trial);

  obs::Registry::global().reset();
  (void)net::NetSimulator(ring, cfg).run();
  const auto reference = store_counts();

  // The sequential run actually exercised the store surface.
  ASSERT_EQ(reference.at("store.puts").first, 1024u);
  ASSERT_EQ(reference.at("store.gets").first, 512u);
  ASSERT_EQ(reference.at("store.misses").first, 0u);
  ASSERT_GT(reference.at("store.resizes").first, 0u);
  ASSERT_EQ(reference.at("store.resize.calls").first,
            reference.at("store.resizes").first);
  ASSERT_EQ(reference.at("store.probe_len").first, 1024u);

  // Bit-identical placements mean bit-identical store traffic: a rerun of
  // the same (seed, config) reproduces the counters exactly, buckets
  // included.
  obs::Registry::global().reset();
  (void)net::NetSimulator(ring, cfg).run();
  EXPECT_EQ(store_counts(), reference);

  // So does every worker x shard layout of a pool running kCopies of the
  // run at once (kCopies / shards per queued block): the per-thread sinks
  // merge to exactly kCopies times the reference, buckets included.
  constexpr std::size_t kCopies = 4;
  auto scaled = reference;
  for (auto& [name, value] : scaled) {
    value.first *= kCopies;
    for (auto& b : value.second) b *= kCopies;
  }
  for (const auto& [workers, shards] :
       {std::pair<std::size_t, std::size_t>{1, 1}, {2, 4}, {4, 2}}) {
    obs::Registry::global().reset();
    parallel::ThreadPool pool(workers);
    for (std::size_t s = 0; s < shards; ++s) {
      pool.submit([&ring, &cfg, per_shard = kCopies / shards] {
        for (std::size_t c = 0; c < per_shard; ++c) {
          (void)net::NetSimulator(ring, cfg).run();
        }
      });
    }
    pool.wait();
    EXPECT_EQ(store_counts(), scaled)
        << "workers=" << workers << " shards=" << shards;
  }
}

TEST(ObsRegistry, SpanIsInertWhenDisabled) {
  obs::Registry::global().reset();
  obs::set_enabled(false);
  const obs::Timer timer("test.span_off");
  {
    obs::Span span(timer);
  }
  const auto all = obs::Registry::global().snapshot();
  EXPECT_EQ(find_metric(all, "test.span_off.calls").count, 0u);
}

#else  // !GEOCHOICE_OBS_ENABLED

TEST(ObsRegistry, StubLayerIsInert) {
  EXPECT_FALSE(obs::compiled_in());
  EXPECT_FALSE(obs::enabled());
  const obs::Counter counter("test.stub");
  counter.add(1);
  EXPECT_TRUE(obs::Registry::global().snapshot().empty());
}

#endif  // GEOCHOICE_OBS_ENABLED

// The trace ring compiles in both configurations; only record() is
// compiled out, which the stub test above covers via recorded() == 0.

obs::TraceRecord make_record(double ts, std::uint64_t op,
                             obs::TracePhase phase) {
  obs::TraceRecord r;
  r.ts_us = ts;
  r.op = op;
  r.node = 1;
  r.phase = phase;
  r.msg_type = 0;
  return r;
}

TEST(ObsTrace, RingKeepsTheNewestRecords) {
  obs::TraceRecorder rec(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    rec.record(make_record(double(i), i, obs::TracePhase::kScheduled));
  }
  if (!obs::compiled_in()) {
    EXPECT_EQ(rec.size(), 0u);
    return;
  }
  EXPECT_EQ(rec.recorded(), 6u);
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 2u);
  const auto records = rec.records();  // oldest first
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records.front().op, 2u);
  EXPECT_EQ(records.back().op, 5u);
}

TEST(ObsTrace, ChromeJsonIsWellFormed) {
  obs::TraceRecorder rec(8);
  rec.record(make_record(1.25, 0, obs::TracePhase::kScheduled));
  rec.record(make_record(2.5, 0, obs::TracePhase::kDelivered));
  const std::string json = rec.to_chrome_json({"probe"});
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  if (!obs::compiled_in()) return;
  EXPECT_NE(json.find("\"probe scheduled\""), std::string::npos);
  EXPECT_NE(json.find("\"probe delivered\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_EQ(json.find("geochoiceDroppedRecords"), std::string::npos);
}

TEST(ObsTrace, DroppedRecordsAreCalledOutInTheExport) {
  obs::TraceRecorder rec(2);
  for (std::uint64_t i = 0; i < 5; ++i) {
    rec.record(make_record(double(i), i, obs::TracePhase::kPopped));
  }
  if (!obs::compiled_in()) return;
  const std::string json = rec.to_chrome_json({"probe"});
  EXPECT_NE(json.find("\"geochoiceDroppedRecords\": 3"), std::string::npos);
}

TEST(ObsTrace, ClearRestartsTheRing) {
  obs::TraceRecorder rec(4);
  rec.record(make_record(1.0, 1, obs::TracePhase::kForwarded));
  rec.clear();
  EXPECT_EQ(rec.size(), 0u);
  EXPECT_EQ(rec.recorded(), 0u);
  EXPECT_EQ(rec.dropped(), 0u);
}

}  // namespace
