// test_parallel_net_sim.cpp — the network simulation run in parallel.
//
// A trial runs on one sequential NetSimulator; run_net_scenario and
// sim::run spread the trials over a ThreadPool (parallel_for cuts the
// trial range into contiguous blocks, about four per worker). This suite
// pins what that concurrency must never change: every trial, whichever
// worker runs it and whatever runs beside it, replays its sequential
// event trace bit-for-bit — golden pins, the store workload, bounded runs
// and the merged obs totals included. The sweeps vary the worker count
// and the shard layout (how many blocks the trials are cut into, queued
// last block first) independently.
//
// Test names share the ParallelNetSim prefix: the CI TSan job scopes its
// run by that name, so every assertion here also executes under
// ThreadSanitizer — the lognormal sweeps put the ziggurat's shared tables
// under it too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "net/simulator.hpp"
#include "obs/obs.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/thread_pool.hpp"
#include "sim/net_experiment.hpp"

namespace gn = geochoice::net;
namespace go = geochoice::obs;
namespace gp = geochoice::parallel;
namespace gs = geochoice::sim;

namespace {

/// The golden-trace config from test_net_sim.cpp: mixed insert+lookup
/// phases, window 8, uniform latency (IEEE-exact arithmetic).
gn::NetConfig mixed_config() {
  gn::NetConfig cfg;
  cfg.nodes = 128;
  cfg.keys = 512;
  cfg.choices = 2;
  cfg.window = 8;
  cfg.latency = gn::LatencyModel::uniform(0.5, 1.5);
  cfg.lookups = 256;
  cfg.seed = 0xdeadbeefcafef00dULL;
  return cfg;
}

/// mixed_config plus the store phase NetSim.StoreWorkloadGoldenTraceHash
/// pins (alpha = 0 keeps the Zipf weights libm-independent).
gn::NetConfig store_config() {
  auto cfg = mixed_config();
  cfg.store_gets = 256;
  cfg.store_zipf_alpha = 0.0;
  return cfg;
}

constexpr std::uint64_t kGoldenHash = 0x59434247df5e10ecULL;
constexpr std::uint64_t kStoreGoldenHash = 0xb5e9d7a646c23c91ULL;

/// One trial's metrics, and its executed-event trace when the config
/// collects one.
struct TrialRun {
  gn::NetMetrics metrics;
  std::vector<gn::TraceEvent> trace;
};

/// Trial `trial` of `cfg` on its own ring, as run_net_scenario runs it.
TrialRun run_trial(gn::NetConfig cfg, std::uint64_t trial) {
  cfg.trial = trial;
  const auto ring = gn::NetSimulator::make_ring(cfg);
  gn::NetSimulator sim(ring, cfg);
  TrialRun out;
  out.metrics = sim.run();
  out.trace = sim.trace();
  return out;
}

std::vector<TrialRun> run_sequential(const gn::NetConfig& cfg,
                                     std::uint64_t trials) {
  std::vector<TrialRun> out;
  for (std::uint64_t t = 0; t < trials; ++t) out.push_back(run_trial(cfg, t));
  return out;
}

/// Trials [0, trials) of `cfg` on a pool of `workers` threads, cut into
/// `shards` contiguous blocks and queued last block first, so neither the
/// queue order nor the trial-to-thread assignment follows trial order.
std::vector<TrialRun> run_sharded(const gn::NetConfig& cfg,
                                  std::uint64_t trials, std::size_t workers,
                                  std::uint64_t shards) {
  std::vector<TrialRun> out(trials);
  gp::ThreadPool pool(workers);
  const std::uint64_t block = (trials + shards - 1) / shards;
  for (std::uint64_t lo = (trials - 1) / block * block;; lo -= block) {
    const std::uint64_t hi = std::min(trials, lo + block);
    pool.submit([&out, &cfg, lo, hi] {
      for (std::uint64_t t = lo; t < hi; ++t) out[t] = run_trial(cfg, t);
    });
    if (lo == 0) break;
  }
  pool.wait();
  return out;
}

std::string layout(std::size_t workers, std::uint64_t shards) {
  return "workers=" + std::to_string(workers) +
         " shards=" + std::to_string(shards);
}

void expect_same_metrics(const gn::NetMetrics& seq, const gn::NetMetrics& par,
                         const std::string& label) {
  EXPECT_EQ(par.trace_hash, seq.trace_hash) << label;
  EXPECT_EQ(par.events, seq.events) << label;
  EXPECT_EQ(par.links, seq.links) << label;
  EXPECT_EQ(par.links_by_type, seq.links_by_type) << label;
  EXPECT_EQ(par.probe_hops, seq.probe_hops) << label;
  EXPECT_EQ(par.stale_reads, seq.stale_reads) << label;
  EXPECT_EQ(par.inserts, seq.inserts) << label;
  EXPECT_EQ(par.lookups, seq.lookups) << label;
  EXPECT_EQ(par.puts, seq.puts) << label;
  EXPECT_EQ(par.gets, seq.gets) << label;
  EXPECT_EQ(par.get_misses, seq.get_misses) << label;
  EXPECT_EQ(par.max_load, seq.max_load) << label;
  EXPECT_EQ(par.loads, seq.loads) << label;
  EXPECT_EQ(par.placements, seq.placements) << label;
  EXPECT_DOUBLE_EQ(par.end_time, seq.end_time) << label;
  EXPECT_DOUBLE_EQ(par.insert_latency.mean(), seq.insert_latency.mean())
      << label;
  EXPECT_DOUBLE_EQ(par.lookup_latency_q.value(2), seq.lookup_latency_q.value(2))
      << label;
}

void expect_same_runs(const std::vector<TrialRun>& seq,
                      const std::vector<TrialRun>& par,
                      const std::string& label) {
  ASSERT_EQ(par.size(), seq.size()) << label;
  for (std::size_t t = 0; t < seq.size(); ++t) {
    const std::string at = label + " trial=" + std::to_string(t);
    expect_same_metrics(seq[t].metrics, par[t].metrics, at);
    EXPECT_TRUE(par[t].trace == seq[t].trace) << at;
  }
}

}  // namespace

TEST(ParallelNetSim, TraceBitIdenticalAcrossWorkersAndShards) {
  // Uniform delays, and lognormal ones drawn through the ziggurat: a
  // trial's full trace does not depend on the pool that runs it.
  for (const auto& latency : {gn::LatencyModel::uniform(0.5, 1.5),
                              gn::LatencyModel::lognormal(0.0, 0.5)}) {
    auto cfg = mixed_config();
    cfg.latency = latency;
    cfg.collect_trace = true;
    constexpr std::uint64_t kTrials = 6;
    const auto seq = run_sequential(cfg, kTrials);
    ASSERT_FALSE(seq[0].trace.empty());
    for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
      for (const std::uint64_t shards : {1u, 3u, 6u}) {
        const std::string label =
            "latency=" + std::string(gn::to_string(latency.kind)) + " " +
            layout(workers, shards);
        expect_same_runs(seq, run_sharded(cfg, kTrials, workers, shards),
                         label);
      }
    }
  }
}

TEST(ParallelNetSim, GoldenTraceHashMatchesSequentialPin) {
  // The exact pin NetSim.GoldenTraceHash holds the sequential engine to:
  // eight copies of the run on a four-worker pool each meet it, proving
  // every worker replays the identical event sequence, not merely an
  // equivalent one.
  std::vector<std::uint64_t> hashes(8, 0);
  gp::parallel_for(
      0, hashes.size(),
      [&hashes](std::size_t i) {
        hashes[i] = gn::NetSimulator::simulate(mixed_config()).trace_hash;
      },
      4);
  for (const std::uint64_t h : hashes) EXPECT_EQ(h, kGoldenHash);
}

TEST(ParallelNetSim, StoreWorkloadTraceMatchesSequential) {
  // The store phase (per-key kPut writes, Zipf kGet reads) extends the
  // trace; concurrent trials replay it bit-exactly at every worker x
  // shard layout, and trial 0 lands on the pin of
  // NetSim.StoreWorkloadGoldenTraceHash.
  auto cfg = store_config();
  cfg.collect_trace = true;
  constexpr std::uint64_t kTrials = 4;
  const auto seq = run_sequential(cfg, kTrials);
  EXPECT_EQ(seq[0].metrics.trace_hash, kStoreGoldenHash);
  for (const auto& run : seq) {
    EXPECT_EQ(run.metrics.gets, 256u);
    EXPECT_EQ(run.metrics.get_misses, 0u);
  }
  for (const auto& [workers, shards] :
       {std::tuple<std::size_t, std::uint64_t>{1, 1}, {4, 4}, {4, 2}}) {
    expect_same_runs(seq, run_sharded(cfg, kTrials, workers, shards),
                     layout(workers, shards));
  }
}

TEST(ParallelNetSim, GoldenHashUnchangedWithObsAndTracing) {
  // Obs fully on and a lifecycle recorder attached to every copy (the
  // recorder is single-writer, so each copy owns one): four concurrent
  // copies must still replay the exact golden sequence, and the
  // per-thread sinks merge to four copies' worth of net.events.
  go::Registry::global().reset();
  go::set_enabled(true);
  constexpr std::size_t kCopies = 4;
  std::vector<go::TraceRecorder> recorders(kCopies);
  std::vector<gn::NetMetrics> runs(kCopies);
  gp::parallel_for(
      0, kCopies,
      [&](std::size_t i) {
        auto cfg = mixed_config();
        cfg.trace = &recorders[i];
        runs[i] = gn::NetSimulator::simulate(cfg);
      },
      kCopies);
  go::set_enabled(false);
  for (std::size_t i = 0; i < kCopies; ++i) {
    EXPECT_EQ(runs[i].trace_hash, kGoldenHash) << "copy " << i;
  }
  if (go::compiled_in()) {
    for (const auto& rec : recorders) EXPECT_GT(rec.size(), 0u);
    std::uint64_t events = 0;
    for (const auto& m : go::Registry::global().snapshot()) {
      if (m.name == "net.events") events = m.count;
    }
    EXPECT_EQ(events, kCopies * runs[0].events);
  }
}

TEST(ParallelNetSim, ObsCounterTotalsInvariantAcrossWorkersAndShards) {
  // The per-thread sinks merge to the same totals however the trials are
  // spread: every net.* and store.* count and bucket is a property of the
  // trials' event streams, not of the pool. Only the wall-clock .ns
  // totals legitimately vary.
  if (!go::compiled_in()) GTEST_SKIP() << "obs layer compiled out";
  constexpr std::uint64_t kTrials = 6;
  const auto totals = [](std::size_t workers, std::uint64_t shards) {
    go::Registry::global().reset();
    go::set_enabled(true);
    (void)run_sharded(store_config(), kTrials, workers, shards);
    go::set_enabled(false);
    std::vector<go::MetricValue> out;
    for (auto& m : go::Registry::global().snapshot()) {
      const std::string& n = m.name;
      if (n.size() >= 3 && n.compare(n.size() - 3, 3, ".ns") == 0) continue;
      out.push_back(std::move(m));
    }
    return out;
  };
  const auto base = totals(1, 1);
  ASSERT_FALSE(base.empty());
  for (const auto& [workers, shards] :
       {std::tuple<std::size_t, std::uint64_t>{2, 3}, {4, 6}, {8, 2}}) {
    const auto got = totals(workers, shards);
    ASSERT_EQ(got.size(), base.size()) << layout(workers, shards);
    for (std::size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ(got[i].name, base[i].name);
      EXPECT_EQ(got[i].count, base[i].count) << got[i].name;
      EXPECT_EQ(got[i].buckets, base[i].buckets) << got[i].name;
    }
  }
}

TEST(ParallelNetSim, ShardStarvedCrewStillExact) {
  // More workers than trials: most of the pool has no trial in any
  // block. Exercises the idle-worker path, directly and through
  // run_net_scenario.
  auto cfg = mixed_config();
  cfg.nodes = 64;
  cfg.keys = 256;
  cfg.lookups = 64;
  expect_same_runs(run_sequential(cfg, 2), run_sharded(cfg, 2, 8, 2),
                   layout(8, 2));

  gs::NetScenarioConfig scn;
  scn.net = cfg;
  scn.trials = 2;
  scn.threads = 1;
  const auto a = gs::run_net_scenario(scn);
  scn.threads = 8;
  const auto b = gs::run_net_scenario(scn);
  EXPECT_TRUE(a.max_load == b.max_load);
  EXPECT_DOUBLE_EQ(a.mean_lookup_hops, b.mean_lookup_hops);
  EXPECT_DOUBLE_EQ(a.insert_latency_p99, b.insert_latency_p99);
  EXPECT_DOUBLE_EQ(a.links_per_insert, b.links_per_insert);
  EXPECT_DOUBLE_EQ(a.stale_fraction, b.stale_fraction);
  EXPECT_DOUBLE_EQ(a.mean_events, b.mean_events);
  EXPECT_DOUBLE_EQ(a.mean_end_time, b.mean_end_time);
}

TEST(ParallelNetSim, MaxEventsStopsOnTheSamePrefix) {
  // Bounded runs cut the identical executed prefix: with max_events set,
  // every concurrently run trial executes exactly the first max_events
  // events of its unbounded trace.
  auto cfg = mixed_config();
  cfg.collect_trace = true;
  constexpr std::uint64_t kTrials = 4;
  const auto full = run_sequential(cfg, kTrials);
  cfg.max_events = 777;
  const auto seq = run_sequential(cfg, kTrials);
  const auto par = run_sharded(cfg, kTrials, 4, 4);
  expect_same_runs(seq, par, "max_events=777 " + layout(4, 4));
  for (std::uint64_t t = 0; t < kTrials; ++t) {
    ASSERT_EQ(par[t].metrics.events, 777u);
    ASSERT_GT(full[t].trace.size(), 777u);
    ASSERT_EQ(par[t].trace.size(), 777u);
    EXPECT_TRUE(std::equal(par[t].trace.begin(), par[t].trace.end(),
                           full[t].trace.begin()))
        << "trial " << t;
  }
}
