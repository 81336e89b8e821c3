// test_udp_cluster.cpp — the differential test the Transport seam
// exists for: a real loopback UDP cluster vs the deterministic
// simulator, same workload, identical placement decisions.
//
// With window = 1 and a deterministic tie-break, a placement depends
// only on the candidate-key stream (kBallChoices) and the serial load
// evolution — never on timing, routing paths, or client identity. The
// simulator (SimTransport, zero latency) and the 3-node in-process
// UdpTransport cluster both draw candidates from the same substream and
// derive the same ring, so their placement sequences must match
// bit-for-bit even though the cluster's datagrams really cross the
// kernel's loopback path.
//
// Sandboxes without socket permission skip (std::system_error from
// socket/bind), so the suite stays green everywhere; CI runs the real
// thing.
#include <gtest/gtest.h>

#include <cstdint>
#include <numeric>
#include <vector>

#include "net/cluster.hpp"
#include "net/simulator.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace geochoice;

constexpr std::uint64_t kSeed = 0x636c7573746572ULL;  // "cluster"

/// Placement sequence of the simulator oracle: owner of insert op i,
/// read off the executed-event trace's kPlace events.
std::vector<std::uint32_t> oracle_placements(const net::NetConfig& cfg,
                                             net::WireResult* out = nullptr) {
  net::NetConfig traced = cfg;
  traced.collect_trace = true;
  const auto ring = net::make_ring(traced.nodes, traced.seed, traced.trial);
  net::NetSimulator sim(ring, traced);
  net::WireResult result = sim.run();
  std::vector<std::uint32_t> placements(traced.insert_count(), 0);
  for (const net::TraceEvent& e : sim.trace()) {
    if (e.msg.type == net::MsgType::kPlace) {
      placements[e.msg.op] = e.msg.at;
    }
  }
  if (out != nullptr) *out = std::move(result);
  return placements;
}

net::WireResult run_cluster_or_skip(const net::ClusterConfig& cfg) {
  try {
    return net::run_loopback_cluster(cfg);
  } catch (const std::system_error& e) {
    // No socket permission in this sandbox: nothing to test against.
    []() { GTEST_SKIP() << "loopback sockets unavailable"; }();
    throw;
  }
}

TEST(UdpCluster, PlacementsMatchTheSimulatorOracle) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.driver.inserts = 96;
  ccfg.driver.choices = 2;
  ccfg.driver.window = 1;
  ccfg.driver.tie = core::TieBreak::kFirstChoice;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 0;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;  // skipped above
  }

  net::NetConfig scfg;
  scfg.nodes = ccfg.nodes;
  scfg.keys = ccfg.driver.inserts;
  scfg.choices = ccfg.driver.choices;
  scfg.window = 1;
  scfg.tie = core::TieBreak::kFirstChoice;
  scfg.latency = net::LatencyModel::zero();
  scfg.seed = kSeed;
  scfg.trial = 0;
  net::WireResult oracle;
  const auto expected = oracle_placements(scfg, &oracle);

  ASSERT_EQ(real.client.inserts, ccfg.driver.inserts);
  EXPECT_EQ(real.client.placements, expected);
  EXPECT_EQ(real.client.loads, oracle.client.loads);
  EXPECT_EQ(real.client.max_load, oracle.client.max_load);
  EXPECT_EQ(real.nodes.malformed, 0u);
}

TEST(UdpCluster, LowestIndexTieAlsoMatches) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 5;
  ccfg.driver.inserts = 60;
  ccfg.driver.choices = 3;
  ccfg.driver.window = 1;
  ccfg.driver.tie = core::TieBreak::kLowestIndex;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 7;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }

  net::NetConfig scfg;
  scfg.nodes = ccfg.nodes;
  scfg.keys = ccfg.driver.inserts;
  scfg.choices = ccfg.driver.choices;
  scfg.window = 1;
  scfg.tie = core::TieBreak::kLowestIndex;
  scfg.latency = net::LatencyModel::zero();
  scfg.seed = kSeed;
  scfg.trial = 7;
  EXPECT_EQ(real.client.placements, oracle_placements(scfg));
}

TEST(UdpCluster, CensusLoadsAccountForEveryInsert) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.driver.inserts = 40;
  ccfg.driver.lookups = 16;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 1;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }

  ASSERT_EQ(real.client.loads.size(), ccfg.nodes);
  const std::uint64_t placed = std::accumulate(
      real.client.loads.begin(), real.client.loads.end(), std::uint64_t{0});
  EXPECT_EQ(placed, ccfg.driver.inserts);  // at-most-once held
  EXPECT_EQ(real.client.lookups, ccfg.driver.lookups);
  EXPECT_EQ(real.client.insert_latency_us_q.count(), ccfg.driver.inserts);
  EXPECT_GT(real.nodes.links.total, 0u);
}

TEST(UdpCluster, StoreReadsServeTheSameValuesAsTheSimulator) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.driver.inserts = 48;
  ccfg.driver.choices = 2;
  ccfg.driver.window = 1;
  ccfg.driver.tie = core::TieBreak::kFirstChoice;
  ccfg.driver.store_gets = 64;
  ccfg.driver.store_zipf_alpha = 0.9;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 3;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }

  net::NetConfig scfg;
  scfg.nodes = ccfg.nodes;
  scfg.keys = ccfg.driver.inserts;
  scfg.choices = ccfg.driver.choices;
  scfg.window = 1;
  scfg.tie = core::TieBreak::kFirstChoice;
  scfg.store_gets = ccfg.driver.store_gets;
  scfg.store_zipf_alpha = ccfg.driver.store_zipf_alpha;
  scfg.latency = net::LatencyModel::zero();
  scfg.seed = kSeed;
  scfg.trial = 3;
  net::WireResult oracle;
  const auto expected = oracle_placements(scfg, &oracle);

  // Same placements, so the same owners served the same keys; the driver
  // already threw if any get returned bytes != protocol::store_value(key).
  EXPECT_EQ(real.client.placements, expected);
  EXPECT_EQ(real.client.puts, ccfg.driver.inserts);
  EXPECT_EQ(real.client.gets, ccfg.driver.store_gets);
  EXPECT_EQ(real.client.get_misses, 0u);
  EXPECT_EQ(oracle.client.get_misses, 0u);
  EXPECT_EQ(real.client.puts, oracle.client.puts);
  EXPECT_EQ(real.client.gets, oracle.client.gets);
  // Every inserted key holds exactly one value somewhere in the cluster.
  EXPECT_EQ(real.nodes.keys_stored, ccfg.driver.inserts);
  EXPECT_EQ(real.client.get_latency_us_q.count(), ccfg.driver.store_gets);
  EXPECT_EQ(real.nodes.malformed, 0u);
}

TEST(UdpCluster, TraceRecorderSeesRealDatagramLifecycles) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 3;
  ccfg.driver.inserts = 24;
  ccfg.driver.lookups = 8;
  ccfg.driver.seed = kSeed;
  obs::TraceRecorder rec;
  ccfg.driver.trace = &rec;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }
  ASSERT_EQ(real.client.inserts, ccfg.driver.inserts);
  if (!obs::compiled_in()) {
    EXPECT_EQ(rec.size(), 0u);
    return;
  }
  // Attaching the recorder changes nothing about the run, and it must
  // have seen at least every issue (scheduled) and completion (delivered)
  // the driver observed. (Timestamps are per-transport clocks — each node
  // binds at a slightly different instant — so only non-negativity is
  // pinnable across the shared ring.)
  std::uint64_t scheduled = 0, delivered = 0;
  for (const auto& r : rec.records()) {
    scheduled += r.phase == obs::TracePhase::kScheduled ? 1 : 0;
    delivered += r.phase == obs::TracePhase::kDelivered ? 1 : 0;
    EXPECT_GE(r.ts_us, 0.0);
  }
  EXPECT_GE(scheduled, ccfg.driver.inserts + ccfg.driver.lookups);
  EXPECT_GE(delivered, ccfg.driver.inserts + ccfg.driver.lookups);
}

TEST(UdpCluster, Window32ServesEveryOp) {
  // Every other cluster test runs at window 1, where each outbox holds
  // one frame per poll. With 32 ops in flight the transports bundle
  // frames per destination; the protocol must not notice.
  net::ClusterConfig ccfg;
  ccfg.nodes = 4;
  ccfg.driver.inserts = 1024;
  ccfg.driver.choices = 2;
  ccfg.driver.window = 32;
  ccfg.driver.store_gets = 2048;
  ccfg.driver.store_zipf_alpha = 0.9;
  ccfg.driver.seed = kSeed;
  ccfg.driver.trial = 5;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }
  ASSERT_EQ(real.client.inserts, ccfg.driver.inserts);
  ASSERT_EQ(real.client.loads.size(), ccfg.nodes);
  const std::uint64_t placed = std::accumulate(
      real.client.loads.begin(), real.client.loads.end(), std::uint64_t{0});
  EXPECT_EQ(placed, ccfg.driver.inserts);
  EXPECT_EQ(real.client.puts, ccfg.driver.inserts);
  EXPECT_EQ(real.client.gets, ccfg.driver.store_gets);
  EXPECT_EQ(real.client.get_misses, 0u);
  EXPECT_EQ(real.nodes.keys_stored, ccfg.driver.inserts);
  EXPECT_EQ(real.nodes.malformed, 0u);
  const std::uint64_t frames_written =
      real.nodes.links.total - real.nodes.self_delivered;
  EXPECT_GT(real.nodes.self_delivered, 0u);
  EXPECT_LT(real.nodes.send_calls, frames_written);  // bundles were written
  EXPECT_LT(real.nodes.recv_calls, real.nodes.datagrams_in);  // ... read whole
}

TEST(UdpCluster, SingleNodeClusterServesItself) {
  net::ClusterConfig ccfg;
  ccfg.nodes = 1;
  ccfg.driver.inserts = 8;
  ccfg.driver.seed = kSeed;

  net::WireResult real;
  try {
    real = run_cluster_or_skip(ccfg);
  } catch (const std::system_error&) {
    return;
  }
  ASSERT_EQ(real.client.loads.size(), 1u);
  EXPECT_EQ(real.client.loads[0], 8u);
  EXPECT_EQ(real.client.max_load, 8u);
}

}  // namespace
