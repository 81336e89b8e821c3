// simulate.cpp — the `simulate` workload: the message-level Chord
// simulator through the front door, sim::run.
//
// One wire-model Scenario over the sim transport: n = 2^10 Chord nodes,
// d = 2, tie = first, 64 inserts in flight, lognormal per-hop latency,
// 2^14 inserts then 2^12 measurement lookups; one trial on one thread,
// which resolves to the sequential engine. The DES loop does all the
// work: the event queue, Chord routing and the protocol handlers. No
// socket and no structural engine is touched, so this is the no-change
// control for transport work.
//
// The ring is small on purpose. Calls at n = 2^14, whose finger tables
// outgrow one core's L2, track the load of the shared host more closely:
// on a 4-vCPU VM, interleaved with n = 2^10 calls of as many inserts for
// 9 minutes, their 10 s medians ranged 30% against 22%, and their 30 s
// medians 17% against 10%. Calls are short (about 0.08 s) so a run's
// median is over a hundred or more of them.
//
// Calls repeat (each with its own seed, on the next CPU in turn, see
// PinnedCpu) until --seconds is used. The
// latency gates here are the simulated insert and lookup latencies the
// report carries, in simulated microseconds: deterministic for a seed,
// they move only if the simulated protocol changes.
#include <cmath>
#include <string>
#include <vector>

#include "anchors.hpp"
#include "common.hpp"
#include "dht/chord.hpp"
#include "net/event_queue.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "rng/distributions.hpp"
#include "rng/streams.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace geochoice;

constexpr std::uint64_t kNodes = 1 << 10;
constexpr std::uint64_t kInserts = 1 << 14;
constexpr std::uint64_t kLookups = 1 << 12;
constexpr std::uint64_t kOps = kInserts + kLookups;
constexpr std::uint32_t kWindow = 64;
constexpr int kChoices = 2;
constexpr int kMinCalls = 3;
constexpr int kRepeats = 15;
// Anchor: a small window-1, zero-latency wire run against the structural
// engine on Chord ownership (the "wire == run_process" anchor).
constexpr std::uint64_t kAnchorNodes = 1 << 10;
constexpr std::uint64_t kAnchorBalls = 1 << 12;
constexpr std::uint64_t kAnchorTrials = 8;

/// Per-hop latency in simulated microseconds: lognormal, median 40.
net::LatencyModel latency() {
  return net::LatencyModel::lognormal(std::log(40.0), 0.5);
}

sim::Scenario spec(std::uint64_t seed) {
  sim::Scenario sc;
  sc.space = sim::SpaceKind::kChordNet;
  sc.model = sim::ExecModel::kWire;
  sc.transport = sim::WireTransport::kSim;
  sc.num_servers = kNodes;
  sc.num_balls = kInserts;
  sc.num_choices = kChoices;
  sc.tie = core::TieBreak::kFirstChoice;
  sc.trials = 1;
  sc.threads = 1;
  sc.seed = seed;
  sc.latency = latency();
  sc.window = kWindow;
  sc.lookups = kLookups;
  return sc;
}

struct Call {
  double wall_s = 0.0;
  sim::RunReport report;
};

/// A call's outputs are plausible: one trial of a wire run, the
/// sequential engine, and every key placed somewhere.
bool call_ok(const sim::RunReport& r) {
  return r.wire.present && r.max_load.total() == 1 && r.spec.workers == 0 &&
         r.max_load.max_value() * kNodes >= kInserts &&
         r.wire.insert_latency_p50 > 0.0 && r.wire.lookup_latency_p50 > 0.0;
}

std::uint64_t metric(const sim::RunReport& r, const char* name) {
  for (const auto& m : r.metrics) {
    if (m.name == name) return m.count;
  }
  return 0;
}

/// Window-1 zero-latency wire run vs the structural scalar engine on the
/// same Chord rings and ball streams; returns the operations it covers
/// when they disagree, 0 when they agree.
std::uint64_t anchor_failures(std::uint64_t seed) {
  sim::Scenario wire;
  wire.space = sim::SpaceKind::kChordNet;
  wire.model = sim::ExecModel::kWire;
  wire.transport = sim::WireTransport::kSim;
  wire.num_servers = kAnchorNodes;
  wire.num_balls = kAnchorBalls;
  wire.num_choices = kChoices;
  wire.tie = core::TieBreak::kFirstChoice;
  wire.trials = kAnchorTrials;
  wire.threads = 1;
  wire.seed = seed;
  wire.latency = net::LatencyModel::zero();
  wire.window = 1;
  sim::Scenario structural = wire;
  structural.model = sim::ExecModel::kStructural;
  structural.engine = sim::Engine::kScalar;
  const auto a = sim::run(wire).max_load;
  const auto b = sim::run(structural).max_load;
  return same_max_loads(a, b) ? 0 : kAnchorTrials * kAnchorBalls;
}

/// Layers the front door hides, timed alone on call 0's inputs.
struct Isolated {
  double push_pop_ns = 0.0;  // one EventQueue pop + push (hold model)
  double sample_ns = 0.0;    // one latency draw
  double next_hop_ns = 0.0;  // one Chord routing step
};

Isolated time_isolated(std::uint64_t seed, SpanRecorder& spans) {
  Isolated out;
  const net::LatencyModel lat = latency();
  auto lat_gen = rng::make_stream(seed, 0, rng::StreamPurpose::kNetLatency);
  std::vector<double> delays(1 << 16);
  for (double& d : delays) d = lat.sample(lat_gen);
  {
    // The run's in-flight population (window x d), its latency draws.
    Scope s(spans, Layer::kIsolated, "EventQueue hold");
    const std::size_t inflight = std::size_t{kWindow} * kChoices;
    net::EventQueue<net::Message> queue(lat.mean() / static_cast<double>(inflight));
    for (std::size_t i = 0; i < inflight; ++i) queue.push(delays[i], net::Message{});
    out.push_pop_ns = median_ns_per_item(kRepeats, delays.size(), [&](std::uint64_t& sink) {
      for (const double d : delays) {
        auto e = queue.pop();
        sink += e.seq;
        queue.push(e.time + d, e.payload);
      }
    });
  }
  {
    Scope s(spans, Layer::kIsolated, "LatencyModel::sample");
    out.sample_ns = median_ns_per_item(kRepeats, delays.size(), [&](std::uint64_t& sink) {
      double acc = 0.0;
      for (std::size_t i = 0; i < delays.size(); ++i) acc += lat.sample(lat_gen);
      sink += static_cast<std::uint64_t>(acc);
    });
  }
  auto ring_gen = rng::make_stream(seed, 0, rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(kNodes, ring_gen);
  ring.build_fingers();
  auto key_gen = rng::make_stream(seed, 0, rng::StreamPurpose::kBallChoices);
  std::vector<double> keys(1 << 16);
  std::vector<std::uint32_t> from(keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i] = rng::uniform01(key_gen);
    from[i] = static_cast<std::uint32_t>(rng::uniform_below(key_gen, kNodes));
  }
  Scope s(spans, Layer::kIsolated, "ChordRing::next_hop");
  out.next_hop_ns = median_ns_per_item(kRepeats, keys.size(), [&](std::uint64_t& sink) {
    for (std::size_t i = 0; i < keys.size(); ++i) sink += ring.next_hop(from[i], keys[i]);
  });
  return out;
}

}  // namespace

Result run_simulate(const Options& opt) {
  Result res;
  // Untraced calls: the end-to-end figures, and the traced run's baseline.
  // Before each call, its set-up: building the call's ring.
  std::vector<double> setup;
  std::vector<Call> calls;
  double used = 0.0;
  for (std::uint64_t c = 0; c < kMinCalls || used < opt.seconds; ++c) {
    const std::uint64_t seed = derive_seed(opt.seed, 1, c);
    PinnedCpu pin(c);
    const std::uint64_t t0 = now_ns();
    auto gen = rng::make_stream(seed, 0, rng::StreamPurpose::kServerPlacement);
    auto ring = dht::ChordRing::random(kNodes, gen);
    ring.build_fingers();
    const std::uint64_t t1 = now_ns();
    setup.push_back(seconds_between(t0, t1));
    Call call;
    call.report = sim::run(spec(seed));
    call.wall_s = seconds_between(t1, now_ns());
    used += call.wall_s;
    res.attempted += kOps;
    if (!call_ok(call.report)) {
      res.failed += kOps;
      res.note("simulate.failure", "call " + std::to_string(c) + " output invalid");
    }
    calls.push_back(std::move(call));
  }
  res.attempted += kAnchorTrials * kAnchorBalls;
  const std::uint64_t anchor_failed =
      anchor_failures(derive_seed(opt.seed, 4, 0));
  if (anchor_failed > 0) {
    res.failed += anchor_failed;
    res.note("simulate.failure", "window-1 zero-latency wire max loads differ "
                                 "from the structural Chord engine");
  }

  std::vector<double> ops_per_s, ins50, ins90, get50, get90;
  for (const Call& c : calls) {
    ops_per_s.push_back(static_cast<double>(kOps) / c.wall_s);
    ins50.push_back(c.report.wire.insert_latency_p50);
    ins90.push_back(c.report.wire.insert_latency_p90);
    get50.push_back(c.report.wire.lookup_latency_p50);
    get90.push_back(c.report.wire.lookup_latency_p90);
  }
  const sim::Scenario& resolved = calls.front().report.spec;
  res.note("engine", "wire/" + std::string(sim::to_string(resolved.transport)) +
                         " workers=" + std::to_string(resolved.workers) +
                         " threads=" + std::to_string(resolved.threads));
  res.note("simulate.calls", std::to_string(calls.size()));

  if (!opt.trace) {
    res.add("setup_s", "s", median(setup));
    res.add("ops_per_sec", "1/s", median(ops_per_s));
    res.add("insert_p50_us", "us", median(ins50));
    res.add("insert_p90_us", "us", median(ins90));
    res.add("get_p50_us", "us", median(get50));
    res.add("get_p90_us", "us", median(get90));
    res.add("peak_rss_mb", "MB", peak_rss_mb());
    return res;
  }

  SpanRecorder spans;
  std::vector<double> traced_ops_per_s;
  double traced_used = 0.0;
  for (std::uint64_t c = 0; c < kMinCalls || traced_used < opt.seconds / 4.0; ++c) {
    PinnedCpu pin(c);
    const std::uint64_t t0 = now_ns();
    sim::RunReport r;
    {
      Scope s(spans, Layer::kCall, "sim::run", 0, ReqKind::kNone, c);
      r = sim::run(spec(derive_seed(opt.seed, 1, c)));
    }
    const double wall = seconds_between(t0, now_ns());
    traced_used += wall;
    traced_ops_per_s.push_back(static_cast<double>(kOps) / wall);
  }

  // Exact counts from the same spec with the obs layer on.
  sim::Scenario counted = spec(derive_seed(opt.seed, 1, 0));
  counted.obs = true;
  sim::RunReport obs;
  {
    Scope s(spans, Layer::kCall, "sim::run obs", 0, ReqKind::kNone, 0);
    obs = sim::run(counted);
  }
  const auto events = static_cast<double>(metric(obs, "net.events"));
  const auto links = static_cast<double>(metric(obs, "net.links"));
  const auto probe_hops = static_cast<double>(metric(obs, "net.probe_hops"));
  res.attempted += kOps;
  if (metric(obs, "net.inserts") != kInserts || metric(obs, "net.lookups") != kLookups ||
      events <= 0.0) {
    res.failed += kOps;
    res.note("simulate.failure", "obs counters disagree with the spec");
  }
  const double events_per_op = events / static_cast<double>(kOps);
  std::vector<double> ns_per_op;
  for (const Call& c : calls) ns_per_op.push_back(c.wall_s * 1e9 / static_cast<double>(kOps));
  const double ns_per_event = median(ns_per_op) / events_per_op;
  const double lookup_hops = obs.wire.mean_lookup_hops * static_cast<double>(kLookups);

  const Isolated iso = time_isolated(derive_seed(opt.seed, 1, 0), spans);
  res.add("net.sim.events_per_op", "count/op", events_per_op);
  res.add("net.sim.links_per_op", "count/op", links / static_cast<double>(kOps));
  res.add("net.sim.probe_hops_per_insert", "count/op",
          probe_hops / static_cast<double>(kInserts));
  res.add("net.sim.lookup_hops_mean", "count", obs.wire.mean_lookup_hops);
  res.add("net.sim.ns_per_event", "ns", ns_per_event);
  res.add("net.event_queue.push_pop_ns", "ns", iso.push_pop_ns);
  res.add("dht.chord.next_hop_ns", "ns", iso.next_hop_ns);
  res.add("net.latency.sample_ns", "ns", iso.sample_ns);
  res.add("net.sim.residual_ns_per_event", "ns",
          ns_per_event - iso.push_pop_ns - iso.sample_ns * links / events -
              iso.next_hop_ns * (probe_hops + lookup_hops) / events);
  res.add("trace_overhead", "ratio", median(traced_ops_per_s) / median(ops_per_s));
  res.add("failed_op_ratio", "ratio", res.failed_ratio());
  res.trace_file = opt.scratch + "/trace_simulate.json";
  spans.write_chrome_json(res.trace_file);
  return res;
}

}  // namespace perfbench
