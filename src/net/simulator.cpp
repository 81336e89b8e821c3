#include "net/simulator.hpp"

#include <algorithm>
#include <bit>
#include <stdexcept>
#include <utility>

#include "net/protocol.hpp"
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

WireResult NetSimulator::simulate(const NetConfig& cfg) {
  const auto ring = make_ring(cfg.nodes, cfg.seed, cfg.trial);
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
      ports_(make_ports(net_, ring.node_count())) {
  if (!ring.has_fingers()) {
    throw std::invalid_argument(
        "NetSimulator: ring needs build_fingers() for message routing");
  }
  cfg.latency.validate();
  hosts_.reserve(ring.node_count());
  hosts_.emplace_back(ring, 0, ports_[0], driver_config(cfg));
  for (std::uint32_t i = 1; i < ring.node_count(); ++i) {
    hosts_.emplace_back(ring, i, ports_[i], cfg.trace);
  }
  client_ = hosts_[0].client();
}

WireResult NetSimulator::run() {
  if (ran_) throw std::logic_error("NetSimulator::run: single-shot");
  ran_ = true;
  client_->start();
  const auto on_message = [this](const MessageQueue::Event& e) { execute(e); };
  const auto on_alarm = [this](const Message& t) {
    hosts_[0].alarm(t);
    const DriverReport& r = client_->report();
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
  while (!client_->workload_done() &&
         (cfg_.max_events == 0 || result_.events < cfg_.max_events)) {
    if (!net_.step(on_message, on_alarm)) {
      // Every op in flight has a message or an armed alarm.
      throw std::logic_error("NetSimulator: ops in flight, nothing scheduled");
    }
  }
  return finish();
}

/// Count, hash-fold and record one delivered message, then hand it to the
/// host it is addressed to.
void NetSimulator::execute(const MessageQueue::Event& e) {
  const Message& m = e.payload;
  ++result_.events;
  result_.end_us = e.time;
  std::uint64_t& h = result_.trace_hash;
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
  hosts_[m.at].deliver(m);
}

/// The result, from where the served code counts it: the client's report,
/// the hosts' counters and loads, and the network's link counters.
WireResult NetSimulator::finish() {
  WireResult& out = result_;
  out.client = client_->report();
  // No census reply was ever delivered: each load is read off its node.
  out.client.loads.reserve(hosts_.size());
  for (const auto& host : hosts_) {
    out.nodes += host.stats();
    const std::uint32_t load = host.node().load();
    out.client.loads.push_back(load);
    out.client.max_load = std::max(out.client.max_load, load);
  }
  out.nodes.links = net_.links();
  if (client_->workload_done()) {
    // The census probe the client sent as the workload drained was never
    // delivered: it is no link of the workload.
    --out.nodes.links.total;
    --out.nodes.links.by_type[static_cast<std::size_t>(MsgType::kProbe)];
  }
  publish(out);
  return std::move(result_);
}

}  // namespace geochoice::net
