// Tests for the discrete-event network simulator (net/): deterministic
// event ordering, golden-trace reproducibility, Chord hop-count
// validation, and the zero-latency collapse onto core::run_process.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "chi_squared_bins.hpp"
#include "core/process.hpp"
#include "net/net.hpp"
#include "net/protocol.hpp"
#include "net/udp_transport.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"
#include "sim/scenario.hpp"
#include "stats/chi_squared.hpp"

namespace gn = geochoice::net;
namespace gc = geochoice::core;
namespace gd = geochoice::dht;
namespace gr = geochoice::rng;
namespace gs = geochoice::sim;
namespace gst = geochoice::stats;
namespace gt = geochoice::testing;

// ---------------------------------------------------------------- queue

TEST(EventQueue, OrdersByTimeThenScheduleOrder) {
  gn::EventQueue<int> q;
  q.push(2.0, 1);
  q.push(1.0, 2);
  q.push(1.0, 3);  // same time as id 2: must pop after it (FIFO tie order)
  q.push(0.5, 4);
  std::vector<int> order;
  while (!q.empty()) order.push_back(q.pop().payload);
  EXPECT_EQ(order, (std::vector<int>{4, 2, 3, 1}));
}

TEST(EventQueue, SequenceNumbersAreAssignedInPushOrder) {
  gn::EventQueue<char> q;
  q.push(5.0, 'a');
  q.push(1.0, 'b');
  EXPECT_EQ(q.scheduled(), 2u);
  const auto first = q.pop();
  EXPECT_EQ(first.payload, 'b');
  EXPECT_EQ(first.seq, 1u);
}

// -------------------------------------------------------------- latency

TEST(LatencyModel, ConstantConsumesNoRandomness) {
  gr::DefaultEngine a(1), b(1);
  const auto model = gn::LatencyModel::constant(3.5);
  EXPECT_DOUBLE_EQ(model.sample(a), 3.5);
  EXPECT_EQ(a(), b());  // engine untouched
}

TEST(LatencyModel, UniformStaysInRange) {
  gr::DefaultEngine gen(2);
  const auto model = gn::LatencyModel::uniform(1.0, 2.0);
  for (int i = 0; i < 1000; ++i) {
    const double x = model.sample(gen);
    EXPECT_GE(x, 1.0);
    EXPECT_LT(x, 2.0);
  }
}

TEST(LatencyModel, LognormalIsPositive) {
  gr::DefaultEngine gen(3);
  const auto model = gn::LatencyModel::lognormal(0.0, 1.0);
  for (int i = 0; i < 1000; ++i) EXPECT_GT(model.sample(gen), 0.0);
}

namespace {

/// The `simulate` benchmark workload's delay model: median 40, sigma 0.5.
gn::LatencyModel simulate_latency() {
  return gn::LatencyModel::lognormal(std::log(40.0), 0.5);
}

/// A lognormal delay drawn with Box–Muller in place of the ziggurat,
/// under the same floor: the reference LatencyModel::sample is tested
/// against.
double box_muller_delay(const gn::LatencyModel& m, gr::DefaultEngine& gen) {
  return std::max(gn::LatencyModel::kLognormalFloor,
                  std::exp(m.a + m.b * gr::normal_box_muller(gen)));
}

/// 2^21 delays from `draw`, binned in 64 bins of probability 1/64 each
/// under lognormal(mu, sigma).
template <typename Draw>
std::vector<std::uint64_t> binned_delays(double mu, double sigma,
                                         Draw draw) {
  auto edges = gt::equiprobable_normal_edges(64);
  for (double& e : edges) e = std::exp(mu + sigma * e);
  std::vector<std::uint64_t> counts(edges.size() + 1, 0);
  for (std::uint32_t i = 0; i < (1u << 21); ++i) {
    ++counts[gt::bin_of(edges, draw())];
  }
  return counts;
}

const std::vector<double> kEquiprobable64(64, 1.0 / 64.0);

}  // namespace

TEST(LatencyModel, LognormalMatchesBoxMullerReferenceInDistribution) {
  // The ziggurat changes the delays bit-for-bit but not in distribution:
  // two-sample against the Box–Muller draw, and against the lognormal
  // CDF, both at alpha = 0.001.
  const auto model = simulate_latency();
  auto zig_gen = gr::make_stream(1810, 0, gr::StreamPurpose::kNetLatency);
  auto ref_gen = gr::make_stream(1811, 0, gr::StreamPurpose::kNetLatency);
  const auto zig = binned_delays(model.a, model.b,
                                 [&] { return model.sample(zig_gen); });
  const auto ref = binned_delays(model.a, model.b,
                                 [&] { return box_muller_delay(model, ref_gen); });
  const auto two = gst::chi_squared_two_sample(zig, ref);
  EXPECT_EQ(two.dof, 63u);
  EXPECT_FALSE(two.rejects()) << "chi2 = " << two.statistic;
  const auto fit = gst::chi_squared_fit(zig, kEquiprobable64);
  EXPECT_FALSE(fit.rejects()) << "chi2 = " << fit.statistic;
}

TEST(LatencyModel, LognormalTestsCatchASigmaOnePercentHigh) {
  const auto model = simulate_latency();
  const auto biased = gn::LatencyModel::lognormal(model.a, model.b * 1.01);
  auto zig_gen = gr::make_stream(1812, 0, gr::StreamPurpose::kNetLatency);
  auto ref_gen = gr::make_stream(1813, 0, gr::StreamPurpose::kNetLatency);
  const auto zig = binned_delays(model.a, model.b,
                                 [&] { return biased.sample(zig_gen); });
  const auto ref = binned_delays(model.a, model.b,
                                 [&] { return box_muller_delay(model, ref_gen); });
  const auto two = gst::chi_squared_two_sample(zig, ref);
  EXPECT_TRUE(two.rejects()) << "chi2 = " << two.statistic;
  const auto fit = gst::chi_squared_fit(zig, kEquiprobable64);
  EXPECT_TRUE(fit.rejects()) << "chi2 = " << fit.statistic;
}

TEST(LatencyModel, LognormalTwoSampleAcceptsTwoBoxMullerStreams) {
  const auto model = simulate_latency();
  auto gen_a = gr::make_stream(1814, 0, gr::StreamPurpose::kNetLatency);
  auto gen_b = gr::make_stream(1815, 0, gr::StreamPurpose::kNetLatency);
  const auto a = binned_delays(model.a, model.b,
                               [&] { return box_muller_delay(model, gen_a); });
  const auto b = binned_delays(model.a, model.b,
                               [&] { return box_muller_delay(model, gen_b); });
  const auto two = gst::chi_squared_two_sample(a, b);
  EXPECT_FALSE(two.rejects()) << "chi2 = " << two.statistic;
}

TEST(LatencyModel, Validation) {
  EXPECT_THROW(gn::LatencyModel::constant(-1.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(gn::LatencyModel::uniform(2.0, 1.0).validate(),
               std::invalid_argument);
  EXPECT_THROW(gn::LatencyModel::lognormal(0.0, -0.1).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(gn::LatencyModel::zero().validate());
  // NaN passes every sign comparison and an infinite parameter makes the
  // delays (or their mean) infinite: every kind rejects both, in either
  // parameter.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_THROW(gn::LatencyModel::constant(bad).validate(),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(gn::LatencyModel::uniform(bad, 1.0).validate(),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(gn::LatencyModel::uniform(0.0, bad).validate(),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(gn::LatencyModel::lognormal(bad, 0.5).validate(),
                 std::invalid_argument)
        << bad;
    EXPECT_THROW(gn::LatencyModel::lognormal(0.0, bad).validate(),
                 std::invalid_argument)
        << bad;
  }
  try {
    gn::LatencyModel::constant(nan).validate();
    ADD_FAILURE() << "a NaN constant delay was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("finite"), std::string::npos)
        << e.what();
  }
  // A lognormal's largest delay is exp(mu + kNormalMax * sigma): finite
  // just below the bound, overflowing just above it.
  const double edge = std::log(std::numeric_limits<double>::max());
  EXPECT_NO_THROW(
      gn::LatencyModel::lognormal(0.0, 0.999 * edge / gr::kNormalMax)
          .validate());
  EXPECT_THROW(
      gn::LatencyModel::lognormal(0.0, 1.001 * edge / gr::kNormalMax)
          .validate(),
      std::invalid_argument);
  EXPECT_NO_THROW(gn::LatencyModel::lognormal(700.0, 0.6).validate());
  EXPECT_THROW(gn::LatencyModel::lognormal(700.0, 0.8).validate(),
               std::invalid_argument);
  EXPECT_THROW(gn::LatencyModel::lognormal(0.0, 200.0).validate(),
               std::invalid_argument);
  EXPECT_EQ(gn::latency_kind_from_string("lognormal"),
            gn::LatencyKind::kLognormal);
  EXPECT_THROW((void)gn::latency_kind_from_string("warp"),
               std::invalid_argument);
}

// ---------------------------------------------------------------- chord

TEST(ChordRouting, NextHopIterationMatchesLookup) {
  gr::DefaultEngine gen(11);
  auto ring = gd::ChordRing::random(300, gen);
  ring.build_fingers();
  for (int i = 0; i < 200; ++i) {
    const auto start =
        static_cast<std::uint32_t>(gr::uniform_below(gen, ring.node_count()));
    const double key = gr::uniform01(gen);
    const auto ref = ring.lookup(start, key);
    std::uint32_t cur = start, hops = 0;
    while (cur != ref.owner && hops <= ring.node_count()) {
      cur = ring.next_hop(cur, key);
      ++hops;
    }
    EXPECT_EQ(cur, ref.owner);
    EXPECT_EQ(hops, ref.hops);
  }
}

TEST(ChordRouting, FingerAccessorMatchesConstruction) {
  gr::DefaultEngine gen(12);
  auto ring = gd::ChordRing::random(64, gen);
  ring.build_fingers();
  for (std::uint32_t i = 0; i < 64; ++i) {
    for (int k = 0; k < ring.fingers_per_node(); ++k) {
      const double target = ring.node_id(i) + std::ldexp(1.0, -(k + 1));
      EXPECT_EQ(ring.finger(i, k),
                ring.successor(target >= 1.0 ? target - 1.0 : target));
    }
  }
}

// ----------------------------------------------------------- simulator

TEST(NetSim, RejectsBadConfigs) {
  gn::NetConfig cfg;
  cfg.nodes = 16;
  auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);

  gn::NetConfig bad = cfg;
  bad.choices = 0;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);
  bad.choices = gn::kMaxChoices + 1;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);

  bad = cfg;
  bad.window = 0;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);

  bad = cfg;
  bad.tie = gc::TieBreak::kSmallerRegion;
  EXPECT_THROW(gn::NetSimulator(ring, bad), std::invalid_argument);

  gr::DefaultEngine gen(1);
  const auto bare = gd::ChordRing::random(16, gen);  // no fingers
  EXPECT_THROW(gn::NetSimulator(bare, cfg), std::invalid_argument);
}

TEST(NetSim, RunIsSingleShot) {
  gn::NetConfig cfg;
  cfg.nodes = 16;
  cfg.keys = 4;
  const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
  gn::NetSimulator sim(ring, cfg);
  (void)sim.run();
  EXPECT_THROW((void)sim.run(), std::logic_error);
}

namespace {

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

}  // namespace

TEST(NetSim, IdenticalTraceAcrossRuns) {
  auto cfg = mixed_config();
  cfg.collect_trace = true;
  const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
  gn::NetSimulator a(ring, cfg), b(ring, cfg);
  const auto ma = a.run();
  const auto mb = b.run();
  ASSERT_FALSE(a.trace().empty());
  EXPECT_EQ(a.trace().size(), b.trace().size());
  EXPECT_TRUE(a.trace() == b.trace());
  EXPECT_EQ(ma.trace_hash, mb.trace_hash);
  EXPECT_EQ(ma.client.loads, mb.client.loads);
  EXPECT_EQ(ma.events, mb.events);
  EXPECT_DOUBLE_EQ(ma.end_us, mb.end_us);
  EXPECT_DOUBLE_EQ(ma.client.lookup_latency_us_q.value(2),
                   mb.client.lookup_latency_us_q.value(2));
}

TEST(NetSim, GoldenTraceHash) {
  // Pins the full event trace of a fixed (seed, config) across platforms
  // and compilers: any change to message ordering, RNG consumption, or
  // routing logic fails here loudly. Uniform latency keeps the arithmetic
  // to IEEE mul/add (no libm), so the hash is bit-stable.
  const auto m = gn::NetSimulator::simulate(mixed_config());
  EXPECT_EQ(m.trace_hash, 0x69599c94123ee8bcULL);
}

TEST(NetSim, GoldenTraceHashUnchangedWithObsAndTracing) {
  // The observability contract, enforced: metrics fully enabled AND a
  // lifecycle recorder attached must not move the golden pin by one bit
  // (obs consumes no RNG and never reorders events).
  namespace obs = geochoice::obs;
  obs::Registry::global().reset();
  obs::set_enabled(true);
  obs::TraceRecorder rec;
  auto cfg = mixed_config();
  cfg.trace = &rec;
  const auto m = gn::NetSimulator::simulate(cfg);
  obs::set_enabled(false);
  EXPECT_EQ(m.trace_hash, 0x69599c94123ee8bcULL);
  if (obs::compiled_in()) {
    EXPECT_GT(rec.size(), 0u);  // the recorder really saw the run
    bool counted_events = false;
    for (const auto& metric : obs::Registry::global().snapshot()) {
      if (metric.name == "net.events" && metric.count == m.events) {
        counted_events = true;
      }
    }
    EXPECT_TRUE(counted_events);
  }
}

namespace {

gn::NetConfig store_config() {
  auto cfg = mixed_config();
  // The store phase appends per-key kPut writes and Zipf kGet reads to the
  // same trace. alpha = 0 here because std::pow(x, 0.0) == 1.0 is an
  // IEEE/C special case: the weights — and with them the key draws and
  // the pinned hash — stay bit-stable across libm implementations.
  // (Skewed alphas are exercised by the serving bench, whose perf gates
  // are same-run ratios.)
  cfg.store_gets = 256;
  cfg.store_zipf_alpha = 0.0;
  return cfg;
}

}  // namespace

TEST(NetSim, StoreWorkloadGoldenTraceHash) {
  // The store-enabled run has its own pin: one put per placed key, every
  // get answered from the recorded owner, zero misses — bit-reproducible
  // from (seed, config) like every other trace.
  const auto m = gn::NetSimulator::simulate(store_config());
  EXPECT_EQ(m.client.puts, store_config().insert_count());
  EXPECT_EQ(m.client.gets, 256u);
  EXPECT_EQ(m.client.get_misses, 0u);
  EXPECT_GT(m.client.get_latency_us.count(), 0u);
  EXPECT_EQ(m.trace_hash, 0xbe7423044176fd1cULL);
}

TEST(NetSim, StoreWorkloadRecordsPlacements) {
  // metrics.placements must agree with the per-node load tallies: each
  // node's final load is exactly the number of keys placed on it.
  const auto m = gn::NetSimulator::simulate(store_config());
  std::vector<std::uint32_t> by_owner(m.client.loads.size(), 0);
  for (const std::uint32_t owner : m.client.placements) ++by_owner[owner];
  EXPECT_EQ(by_owner, m.client.loads);
}

/// mixed_config's protocol knobs as a wire-model Scenario on a 64-node
/// ring.
gs::Scenario mixed_scenario() {
  const gn::NetConfig cfg = mixed_config();
  gs::Scenario sc;
  sc.model = gs::ExecModel::kWire;
  sc.space = gs::SpaceKind::kChordNet;
  sc.num_servers = 64;
  sc.num_balls = 128;
  sc.num_choices = cfg.choices;
  sc.window = cfg.window;
  sc.latency = cfg.latency;
  sc.lookups = 64;
  sc.seed = cfg.seed;
  return sc;
}

TEST(NetSim, ScenarioIsThreadCountInvariant) {
  auto sc = mixed_scenario();
  sc.trials = 8;
  sc.threads = 1;
  const auto a = gs::run(sc);
  sc.threads = 4;
  const auto b = gs::run(sc);
  EXPECT_TRUE(a.max_load == b.max_load);
  EXPECT_DOUBLE_EQ(a.wire.mean_lookup_hops, b.wire.mean_lookup_hops);
  EXPECT_DOUBLE_EQ(a.wire.lookup_latency_p99, b.wire.lookup_latency_p99);
  EXPECT_DOUBLE_EQ(a.wire.links_per_insert, b.wire.links_per_insert);
  EXPECT_DOUBLE_EQ(a.wire.stale_fraction, b.wire.stale_fraction);
}

TEST(NetSim, ScenarioIsEngineInvariant) {
  // A wire run has no structural engine: whatever sc.engine names, each
  // trial is one sequential NetSimulator and the report echoes kScalar.
  // The scenario-level aggregates must not move by a single bit.
  gs::Scenario sc;
  sc.model = gs::ExecModel::kWire;
  sc.space = gs::SpaceKind::kChordNet;
  sc.num_servers = 64;
  sc.num_balls = 128;
  sc.window = 8;
  sc.lookups = 64;
  sc.latency = gn::LatencyModel::lognormal(0.0, 0.5);
  sc.trials = 4;
  sc.threads = 1;
  sc.engine = gs::Engine::kScalar;
  const auto a = gs::run(sc);
  for (const auto engine :
       {gs::Engine::kBatched, gs::Engine::kSharded, gs::Engine::kAuto}) {
    sc.engine = engine;
    const auto b = gs::run(sc);
    const std::string label(gs::to_string(engine));
    EXPECT_EQ(b.spec.engine, gs::Engine::kScalar) << label;
    EXPECT_TRUE(a.max_load == b.max_load) << label;
    EXPECT_DOUBLE_EQ(a.wire.mean_lookup_hops, b.wire.mean_lookup_hops)
        << label;
    EXPECT_DOUBLE_EQ(a.wire.insert_latency_p99, b.wire.insert_latency_p99)
        << label;
    EXPECT_DOUBLE_EQ(a.wire.lookup_latency_p99, b.wire.lookup_latency_p99)
        << label;
    EXPECT_DOUBLE_EQ(a.wire.links_per_insert, b.wire.links_per_insert)
        << label;
    EXPECT_DOUBLE_EQ(a.wire.stale_fraction, b.wire.stale_fraction) << label;
    EXPECT_DOUBLE_EQ(a.wire.mean_events, b.wire.mean_events) << label;
    EXPECT_DOUBLE_EQ(a.wire.mean_end_time, b.wire.mean_end_time) << label;
  }
}

TEST(NetSim, MessageConservation) {
  const auto cfg = mixed_config();
  const auto m = gn::NetSimulator::simulate(cfg);
  using T = gn::MsgType;
  auto by = [&](T t) {
    return m.nodes.links.by_type[static_cast<std::size_t>(t)];
  };
  EXPECT_EQ(m.client.inserts, cfg.keys);
  EXPECT_EQ(m.client.lookups, cfg.lookups);
  // Every probe eventually produces exactly one reply; every insert one
  // place + one ack; every lookup one reply.
  EXPECT_EQ(by(T::kProbeReply),
            cfg.keys * static_cast<std::uint64_t>(cfg.choices));
  EXPECT_EQ(by(T::kPlace), cfg.keys);
  EXPECT_EQ(by(T::kPlaceAck), cfg.keys);
  EXPECT_EQ(by(T::kLookupReply), cfg.lookups);
  const auto& by_type = m.nodes.links.by_type;
  const auto total =
      std::accumulate(by_type.begin(), by_type.end(), std::uint64_t{0});
  EXPECT_EQ(total, m.nodes.links.total);
  // Key conservation: every insert landed on exactly one node.
  EXPECT_EQ(std::accumulate(m.client.loads.begin(), m.client.loads.end(),
                            std::uint64_t{0}),
            cfg.keys);
  EXPECT_EQ(m.client.insert_latency_us.count(), cfg.keys);
  EXPECT_EQ(m.client.lookup_latency_us.count(), cfg.lookups);
}

TEST(NetSim, SerializedWindowNeverReadsStale) {
  // With one operation in flight the load replies cannot be invalidated by
  // concurrent placements, at any latency.
  auto cfg = mixed_config();
  cfg.window = 1;
  cfg.latency = gn::LatencyModel::lognormal(0.0, 1.0);
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_EQ(m.nodes.stale_reads, 0u);
}

TEST(NetSim, WideWindowReadsGoStale) {
  auto cfg = mixed_config();
  cfg.nodes = 64;
  cfg.keys = 2048;
  cfg.window = 64;
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_GT(m.nodes.stale_reads, 0u);
}

// ----------------------------------------- the served protocol, simulated

namespace {

using Delivery = gn::MessageQueue::Event;

/// Step `net` until nothing is queued or armed; returns the deliveries.
std::vector<Delivery> drain(gn::SimNetwork& net) {
  std::vector<Delivery> out;
  while (net.step([&](const Delivery& e) { out.push_back(e); },
                  [](const gn::Message&) {})) {
  }
  return out;
}

bool same_delivery(const Delivery& a, const Delivery& b) {
  return a.time == b.time && a.seq == b.seq && a.payload == b.payload;
}

}  // namespace

TEST(NetSim, SelfSendsAreImmediateDrawNothingAndCountAsLinks) {
  // A message a node sends to itself arrives after zero delay and draws
  // no delay, and links() counts it, as UdpTransport::links() does.
  const auto model = gn::LatencyModel::lognormal(0.0, 1.0);
  gn::SimNetwork net(model,
                     gr::make_stream(7, 0, gr::StreamPurpose::kNetLatency),
                     1.0);
  gn::Message m;
  m.at = 3;
  net.send(3, m);
  m.at = 5;
  net.send(3, m);
  EXPECT_EQ(net.links().total, 2u);
  const auto got = drain(net);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].payload.at, 3u);
  EXPECT_EQ(got[0].time, 0.0);
  auto ref = gr::make_stream(7, 0, gr::StreamPurpose::kNetLatency);
  EXPECT_EQ(got[1].time, model.sample(ref));  // the link took draw one
}

TEST(NetSim, OneNodeRingRunsOnSelfSendsAlone) {
  gn::NetConfig cfg;
  cfg.nodes = 1;
  cfg.keys = 8;
  cfg.lookups = 4;
  cfg.latency = gn::LatencyModel::constant(7.0);
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_EQ(m.end_us, 0.0);
  EXPECT_EQ(m.client.insert_latency_us.max(), 0.0);
  EXPECT_EQ(m.client.lookup_latency_us.max(), 0.0);
  EXPECT_EQ(m.client.loads, std::vector<std::uint32_t>{8});
  // Every self-send counted and delivered.
  EXPECT_EQ(m.nodes.links.total, m.events);
}

TEST(NetSim, LatenciesKeepSimTimePrecision) {
  // The client's op clocks take the type of its transport's now_us().
  static_assert(std::is_same_v<gn::ClientDriver<gn::SimTransport>::Clock,
                               gn::SimTime>);
  static_assert(std::is_same_v<gn::ClientDriver<gn::UdpTransport>::Clock,
                               std::uint64_t>);
  // At window 1 with a constant delay, halving the delay halves every
  // event time exactly, and so every latency: none is rounded to whole
  // microseconds.
  auto cfg = mixed_config();
  cfg.window = 1;
  cfg.latency = gn::LatencyModel::constant(0.3);
  const auto a = gn::NetSimulator::simulate(cfg);
  cfg.latency = gn::LatencyModel::constant(0.15);
  const auto b = gn::NetSimulator::simulate(cfg);
  EXPECT_GT(b.client.insert_latency_us.mean(), 0.0);
  EXPECT_EQ(a.client.insert_latency_us.mean(),
            2.0 * b.client.insert_latency_us.mean());
  EXPECT_EQ(a.client.insert_latency_us.max(),
            2.0 * b.client.insert_latency_us.max());
  EXPECT_EQ(a.client.lookup_latency_us.mean(),
            2.0 * b.client.lookup_latency_us.mean());
  EXPECT_EQ(a.end_us, 2.0 * b.end_us);
}

TEST(NetSim, AlarmsRunOnSimulatedTime) {
  // 1 ms = 1,000 simulated us: an alarm of 50 ms armed at time 0 fires at
  // 50,000, after the message that lands at that same instant. A message
  // the alarm sends overtakes one already due later.
  gn::SimNetwork net(gn::LatencyModel::constant(50'000.0),
                     gr::make_stream(8, 0, gr::StreamPurpose::kNetLatency),
                     1.0);
  gn::Message m;
  m.at = 1;
  m.op = 7;
  net.send(0, m);  // lands at 50 ms
  m.op = 8;
  net.send(0, m);  // lands at 50 ms, after op 7
  gn::Message alarm;
  alarm.op = 42;
  (void)net.schedule(50, alarm);
  m.op = 9;
  m.at = 0;
  // (time, op): deliveries, and the alarm at the time it fired.
  std::vector<std::pair<gn::SimTime, std::uint64_t>> log;
  while (net.step(
      [&](const Delivery& e) {
        log.emplace_back(e.time, e.payload.op);
        if (e.payload.op == 7) {
          m.op = 10;
          m.at = 1;
          net.send(0, m);  // 100 ms
          // The clock still stands on tick 49 (tick 50 fires after the
          // messages at its instant): 20 ticks on is 69 ms.
          (void)net.schedule(20, alarm);
        }
      },
      [&](const gn::Message& t) {
        log.emplace_back(net.now(), t.op);
        m.op = 11;
        m.at = 0;
        net.send(0, m);  // to itself: at once, before op 10 at 100 ms
      })) {
  }
  using Entry = std::pair<gn::SimTime, std::uint64_t>;
  EXPECT_EQ(log, (std::vector<Entry>{{50'000.0, 7},
                                     {50'000.0, 8},
                                     {50'000.0, 42},
                                     {50'000.0, 11},
                                     {69'000.0, 42},
                                     {69'000.0, 11},
                                     {100'000.0, 10}}));
}

TEST(NetSim, AlarmClockTicksAreDefinedForEveryTime) {
  using N = gn::SimNetwork;
  constexpr std::uint64_t kCap = std::uint64_t{1} << 62;
  const double max = std::numeric_limits<double>::max();
  EXPECT_EQ(N::tick_before(0.0), 0u);
  EXPECT_EQ(N::tick_before(1000.0), 0u);
  EXPECT_EQ(N::tick_before(1000.5), 1u);
  EXPECT_EQ(N::tick_before(50'000.0), 49u);
  EXPECT_EQ(N::tick_before(max), kCap);
  EXPECT_EQ(N::tick_before(std::numeric_limits<double>::infinity()), kCap);
  // An alarm armed at the largest finite time still fires, once.
  gn::SimNetwork net(gn::LatencyModel::constant(max),
                     gr::make_stream(9, 0, gr::StreamPurpose::kNetLatency),
                     1.0);
  gn::Message m;
  m.at = 1;
  net.send(0, m);
  int fired = 0;
  while (net.step(
      [&](const Delivery&) {
        EXPECT_EQ(net.now(), max);
        (void)net.schedule(50, m);
      },
      [&](const gn::Message&) { ++fired; })) {
  }
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(net.now(), max);
}

TEST(NetSim, CancelledAlarmsLeaveTheScheduleUntouched) {
  // Alarms live outside the event queue: arming and cancelling one per
  // send changes no delivery time, schedule number or message.
  const auto model = gn::LatencyModel::uniform(0.5, 1.5);
  gn::SimNetwork plain(
      model, gr::make_stream(10, 0, gr::StreamPurpose::kNetLatency), 1.0);
  gn::SimNetwork alarmed(
      model, gr::make_stream(10, 0, gr::StreamPurpose::kNetLatency), 1.0);
  std::vector<Delivery> a, b;
  const auto step = [](gn::SimNetwork& net, std::vector<Delivery>& out) {
    return net.step([&](const Delivery& e) { out.push_back(e); },
                    [](const gn::Message&) { ADD_FAILURE() << "fired"; });
  };
  for (std::uint32_t i = 0; i < 64; ++i) {
    gn::Message m;
    m.at = i % 4;
    m.op = i;
    plain.send(1, m);
    alarmed.send(1, m);
    alarmed.cancel(alarmed.schedule(50, m));
    if (i % 4 == 3) {
      ASSERT_TRUE(step(plain, a));
      ASSERT_TRUE(step(alarmed, b));
    }
  }
  while (step(plain, a)) {
  }
  while (step(alarmed, b)) {
  }
  ASSERT_EQ(a.size(), 64u);
  ASSERT_EQ(b.size(), a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_TRUE(same_delivery(a[i], b[i])) << i;
  }
  EXPECT_EQ(plain.links().total, alarmed.links().total);
}

TEST(NetSim, RunEndsWhenTheWorkloadDrains) {
  // The last answer ends the run: every message sent before it was
  // delivered, and the census probe the client sends at that moment is
  // neither delivered nor counted as a link. The loads come from the
  // nodes.
  auto cfg = mixed_config();
  cfg.collect_trace = true;
  const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
  gn::NetSimulator sim(ring, cfg);
  const auto m = sim.run();
  EXPECT_EQ(m.nodes.links.total, m.events);
  for (const auto& e : sim.trace()) {
    EXPECT_FALSE(e.msg.type == gn::MsgType::kProbe &&
                 e.msg.probe == gn::protocol::kCensusProbe);
  }
  EXPECT_EQ(m.end_us, sim.trace().back().time);
  EXPECT_EQ(std::accumulate(m.client.loads.begin(), m.client.loads.end(),
                            std::uint64_t{0}),
            cfg.keys);
  EXPECT_EQ(m.client.data_retransmits, 0u);
}

TEST(NetSim, RetransmitsWhenLinksOutlastTheAlarm) {
  // Every link takes 60 ms, past the client's 50 ms retransmit alarm: ops
  // resend, the owners' at-most-once set keeps each key placed once, and
  // the run stays a function of (seed, config).
  gn::NetConfig cfg;
  cfg.nodes = 16;
  cfg.keys = 64;
  cfg.window = 4;
  cfg.lookups = 16;
  cfg.store_gets = 32;
  cfg.latency = gn::LatencyModel::constant(60'000.0);
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_GT(m.client.data_retransmits, 0u);
  EXPECT_EQ(m.client.inserts, cfg.keys);
  EXPECT_EQ(m.client.lookups, cfg.lookups);
  EXPECT_EQ(m.client.puts, cfg.keys);
  EXPECT_EQ(m.client.gets, cfg.store_gets);
  EXPECT_EQ(m.client.get_misses, 0u);
  EXPECT_EQ(std::accumulate(m.client.loads.begin(), m.client.loads.end(),
                            std::uint64_t{0}),
            cfg.keys);
  std::vector<std::uint32_t> by_owner(m.client.loads.size(), 0);
  for (const std::uint32_t owner : m.client.placements) ++by_owner[owner];
  EXPECT_EQ(by_owner, m.client.loads);
  EXPECT_EQ(gn::NetSimulator::simulate(cfg).trace_hash, m.trace_hash);
}

TEST(NetSim, SimulateWorkloadNeverRetransmits) {
  // perfbench's `simulate` configuration: its delays (median 40 us) never
  // come near the 50 ms alarm.
  gn::NetConfig cfg;
  cfg.nodes = 1 << 10;
  cfg.keys = 1 << 14;
  cfg.lookups = 1 << 12;
  cfg.window = 64;
  cfg.tie = gc::TieBreak::kFirstChoice;
  cfg.latency = simulate_latency();
  const auto m = gn::NetSimulator::simulate(cfg);
  EXPECT_EQ(m.client.data_retransmits, 0u);
  EXPECT_EQ(m.client.inserts, cfg.keys);
  EXPECT_EQ(m.client.lookups, cfg.lookups);
}

TEST(NetSim, StalledRunThrows) {
  // 1,000 s per link: no op can finish inside the 60 s of simulated time
  // the drive loop allows without progress.
  gn::NetConfig cfg;
  cfg.nodes = 16;
  cfg.keys = 4;
  cfg.latency = gn::LatencyModel::constant(1e9);
  EXPECT_THROW((void)gn::NetSimulator::simulate(cfg), std::runtime_error);
}

// ---------------------------------------------------- paper validation

TEST(NetSim, MeanLookupHopsIsHalfLogN) {
  // Chord's mean path length is ~ 1/2 * log2(n); the acceptance gate asks
  // for 10%, measured here at three ring sizes.
  for (const std::size_t n : {std::size_t{1} << 8, std::size_t{1} << 10,
                              std::size_t{1} << 12}) {
    gn::NetConfig cfg;
    cfg.nodes = n;
    cfg.keys = 1;  // hop statistics want the routing graph, not the load
    cfg.lookups = 8000;
    cfg.window = 8;
    const auto m = gn::NetSimulator::simulate(cfg);
    const double expected = 0.5 * std::log2(static_cast<double>(n));
    EXPECT_NEAR(m.client.lookup_hops.mean(), expected, 0.1 * expected)
        << "n = " << n;
  }
}

TEST(NetSim, ZeroLatencyReproducesRunProcessExactly) {
  // latency -> 0 with a serialized window collapses the message-level
  // two-choice insertion onto the sequential allocation process: same
  // candidate substream, same successor ownership (ChordSuccessorSpace),
  // same tie semantics => bit-identical loads, not merely the same
  // distribution.
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    for (std::uint64_t trial = 0; trial < 8; ++trial) {
      gn::NetConfig cfg;
      cfg.nodes = 512;
      cfg.keys = 512;
      cfg.choices = 2;
      cfg.window = 1;
      cfg.tie = tie;
      cfg.latency = gn::LatencyModel::zero();
      cfg.trial = trial;
      const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
      gn::NetSimulator sim(ring, cfg);
      const auto m = sim.run();

      const gn::ChordSuccessorSpace space(ring);
      gc::ProcessOptions opt;
      opt.num_balls = cfg.keys;
      opt.num_choices = cfg.choices;
      opt.tie = tie;
      auto gen = gr::make_stream(cfg.seed, cfg.trial,
                                 gr::StreamPurpose::kBallChoices);
      const auto ref = gc::run_process(space, opt, gen);
      EXPECT_EQ(m.client.loads, ref.loads);
      EXPECT_EQ(m.client.max_load, ref.max_load);
      EXPECT_EQ(m.nodes.stale_reads, 0u);
    }
  }
}

TEST(NetSim, ZeroLatencyRandomTieMatchesRunProcessDistribution) {
  // kRandom draws ties from a dedicated substream, so the match is in
  // distribution rather than bitwise. Fixed seeds keep this deterministic.
  constexpr int kTrials = 64;
  double sim_sum = 0.0, ref_sum = 0.0;
  for (std::uint64_t trial = 0; trial < kTrials; ++trial) {
    gn::NetConfig cfg;
    cfg.nodes = 256;
    cfg.keys = 256;
    cfg.window = 1;
    cfg.tie = gc::TieBreak::kRandom;
    cfg.latency = gn::LatencyModel::zero();
    cfg.trial = trial;
    const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);
    gn::NetSimulator sim(ring, cfg);
    sim_sum += sim.run().client.max_load;

    const gn::ChordSuccessorSpace space(ring);
    gc::ProcessOptions opt;
    opt.num_balls = cfg.keys;
    opt.num_choices = cfg.choices;
    opt.tie = gc::TieBreak::kRandom;
    auto gen = gr::make_stream(cfg.seed, cfg.trial,
                               gr::StreamPurpose::kBallChoices);
    ref_sum += gc::run_process(space, opt, gen).max_load;
  }
  EXPECT_NEAR(sim_sum / kTrials, ref_sum / kTrials, 0.25);
}

TEST(NetSim, ChordSuccessorSpaceOwnsSuccessorArcs) {
  gr::DefaultEngine gen(21);
  auto ring = gd::ChordRing::random(40, gen);
  ring.build_fingers();
  const gn::ChordSuccessorSpace space(ring);
  EXPECT_EQ(space.bin_count(), 40u);
  double measure = 0.0;
  for (std::uint32_t i = 0; i < 40; ++i) {
    measure += space.region_measure(i);
  }
  EXPECT_NEAR(measure, 1.0, 1e-12);
  for (int i = 0; i < 200; ++i) {
    const double loc = gr::uniform01(gen);
    EXPECT_EQ(space.owner(loc), ring.successor(loc));
  }
}

TEST(NetSim, RenderNetSummaryMentionsKeyMetrics) {
  auto sc = mixed_scenario();
  sc.trials = 4;
  sc.threads = 1;
  const auto text = gs::render_run_summary(gs::run(sc));
  EXPECT_NE(text.find("lookup hops"), std::string::npos);
  EXPECT_NE(text.find("probe hops/insert"), std::string::npos);
  EXPECT_NE(text.find("stale"), std::string::npos);
  EXPECT_NE(text.find("retransmits"), std::string::npos);
  EXPECT_NE(text.find("distribution of max load"), std::string::npos);
}
