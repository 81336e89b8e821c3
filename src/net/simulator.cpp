#include "net/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "net/protocol.hpp"
#include "obs/registry.hpp"
#include "rng/streams.hpp"

namespace geochoice::net {

namespace {

/// FNV-1a fold of one 64-bit word into the trace fingerprint.
void fold(std::uint64_t& h, std::uint64_t w) noexcept {
  h ^= w;
  h *= 0x100000001b3ULL;
}

/// Calendar-queue day-width hint: the latency scale spread over the
/// messages a full window keeps in flight. Only a starting point — the
/// queue re-derives the width from the live schedule as it resizes.
SimTime queue_width_hint(const NetConfig& cfg) noexcept {
  const double inflight =
      static_cast<double>(cfg.window) * static_cast<double>(cfg.choices);
  return cfg.latency.mean() / (inflight > 1.0 ? inflight : 1.0);
}

std::vector<SimTransport> make_ports(SimNetwork& net, std::size_t nodes) {
  std::vector<SimTransport> ports;
  ports.reserve(nodes);
  for (std::uint32_t i = 0; i < nodes; ++i) ports.emplace_back(net, i);
  return ports;
}

DriverConfig driver_config(const NetConfig& cfg) {
  return {.inserts = cfg.insert_count(), .lookups = cfg.lookups,
          .choices = cfg.choices, .window = cfg.window, .tie = cfg.tie,
          .seed = cfg.seed, .trial = cfg.trial, .store_gets = cfg.store_gets,
          .store_zipf_alpha = cfg.store_zipf_alpha, .trace = cfg.trace};
}

}  // namespace

dht::ChordRing NetSimulator::make_ring(const NetConfig& cfg) {
  auto gen = rng::make_stream(cfg.seed, cfg.trial,
                              rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(cfg.nodes, gen);
  ring.build_fingers();
  return ring;
}

NetMetrics NetSimulator::simulate(const NetConfig& cfg) {
  const auto ring = make_ring(cfg);
  NetSimulator sim(ring, cfg);
  return sim.run();
}

// ClientDriver checks d, the window and the tie-break.
NetSimulator::NetSimulator(const dht::ChordRing& ring, const NetConfig& cfg)
    : cfg_(cfg),
      net_(cfg.latency,
           rng::make_stream(cfg.seed, cfg.trial,
                            rng::StreamPurpose::kNetLatency),
           queue_width_hint(cfg)),
      ports_(make_ports(net_, ring.node_count())),
      driver_(ring, driver_config(cfg), ports_[0]) {
  if (!ring.has_fingers()) {
    throw std::invalid_argument(
        "NetSimulator: ring needs build_fingers() for message routing");
  }
  cfg.latency.validate();
  nodes_.reserve(ring.node_count());
  for (std::size_t i = 0; i < ring.node_count(); ++i) {
    nodes_.emplace_back(ring, static_cast<std::uint32_t>(i), ports_[i],
                        cfg.trace);
  }
}

NetMetrics NetSimulator::run() {
  if (ran_) throw std::logic_error("NetSimulator::run: single-shot");
  ran_ = true;
  driver_.start();
  done_ = driver_.workload_done();
  const auto on_message = [this](const MessageQueue::Event& e) { execute(e); };
  const auto on_alarm = [this](const Message& t) {
    driver_.on_timer(t);
    const DriverReport& r = driver_.report();
    const std::uint64_t completed = r.inserts + r.lookups + r.puts + r.gets;
    if (completed != completed_) {
      completed_ = completed;
      progress_at_ = net_.now();
    } else if (net_.now() - progress_at_ > kStallUs) {
      throw std::runtime_error(
          "NetSimulator: no operation completed in 60 s of simulated time; "
          "the link delays dwarf the client's 50 ms retransmit alarm");
    }
  };
  while (!done_ &&
         (cfg_.max_events == 0 || metrics_.events < cfg_.max_events)) {
    if (!net_.step(on_message, on_alarm)) {
      // Every op in flight has a message or an armed alarm.
      throw std::logic_error("NetSimulator: ops in flight, nothing scheduled");
    }
  }
  return finish();
}

/// Count, hash-fold and record one delivered message, then hand it to its
/// node (a request) or to the client (a reply).
void NetSimulator::execute(const MessageQueue::Event& e) {
  const Message& m = e.payload;
  ++metrics_.events;
  metrics_.end_time = e.time;
  std::uint64_t& h = metrics_.trace_hash;
  fold(h, std::bit_cast<std::uint64_t>(e.time));
  fold(h, e.seq);
  fold(h, (static_cast<std::uint64_t>(m.type) << 48) ^
              (static_cast<std::uint64_t>(m.at) << 16) ^ m.probe);
  fold(h, (static_cast<std::uint64_t>(m.client) << 32) ^ m.hops);
  fold(h, m.op);
  fold(h, std::bit_cast<std::uint64_t>(m.key));
  fold(h, m.load);
  if (cfg_.collect_trace) trace_.push_back({e.time, e.seq, m});
  if (cfg_.trace != nullptr) {
    cfg_.trace->record(protocol::trace_record(obs::TracePhase::kPopped, m,
                                              e.time, m.at, m.from));
  }
  if (protocol::is_request(m.type)) {
    nodes_[m.at].on_message(m);
  } else {
    driver_.on_reply(m);  // only a reply can complete the workload
    done_ = driver_.workload_done();
  }
}

/// The metrics, from where the served code counts them: the client's
/// report, the nodes' loads and the transport's link counters. Registry
/// counters are added here in one bulk pass, never per event (the
/// obs_overhead gate).
NetMetrics NetSimulator::finish() {
  const DriverReport& r = driver_.report();
  NetMetrics& out = metrics_;
  out.links = net_.links().total;
  out.links_by_type = net_.links().by_type;
  if (done_) {
    // The census probe the client sent as the workload drained was never
    // delivered: it is no link of the workload.
    --out.links;
    --out.links_by_type[static_cast<std::size_t>(MsgType::kProbe)];
  }
  out.probe_hops = r.probe_hops;
  out.inserts = r.inserts;
  out.lookups = r.lookups;
  out.puts = r.puts;
  out.gets = r.gets;
  out.get_misses = r.get_misses;
  out.retransmits = r.data_retransmits;
  out.placements = r.placements;
  out.lookup_hops = r.lookup_hops;
  out.lookup_hops_q = r.lookup_hops_q;
  out.insert_latency = r.insert_latency_us;
  out.insert_latency_q = r.insert_latency_us_q;
  out.lookup_latency = r.lookup_latency_us;
  out.lookup_latency_q = r.lookup_latency_us_q;
  out.get_latency = r.get_latency_us;
  out.get_latency_q = r.get_latency_us_q;
  out.loads.reserve(nodes_.size());
  for (const auto& node : nodes_) {
    out.loads.push_back(node.load());
    out.max_load = std::max(out.max_load, node.load());
    out.stale_reads += node.stale_reads();
  }
  if (obs::enabled()) {
    static const obs::Counter c_events("net.events");
    static const obs::Counter c_links("net.links");
    static const obs::Counter c_inserts("net.inserts");
    static const obs::Counter c_lookups("net.lookups");
    static const obs::Counter c_probe_hops("net.probe_hops");
    static const obs::Counter c_stale("net.stale_reads");
    c_events.add(out.events);
    c_links.add(out.links);
    c_inserts.add(out.inserts);
    c_lookups.add(out.lookups);
    c_probe_hops.add(out.probe_hops);
    c_stale.add(out.stale_reads);
  }
  return std::move(metrics_);
}

}  // namespace geochoice::net
