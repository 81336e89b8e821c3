// sim_core.hpp — the state and protocol handlers of the wire-level
// simulator.
//
// SimCore is "every node in one process": global per-purpose RNG streams,
// one load array, the in-flight operation pools, and the handler for each
// message kind. NetSimulator (simulator.hpp) adds only the drive loop that
// pops events and hands them to execute(). There is one engine, so SimCore
// is a plain base class with no customization points: routing resolves
// the next finger-table hop inline, owners answer probes and lookups
// where they pop, and every send draws its delay from the kNetLatency
// substream at the moment it is made.
//
// All message motion goes through the net::Transport seam
// (transport.hpp): the handlers call SimTransport::send / deliver_local
// and never touch the event queue directly — the queue is the drive
// loop's surface. The protocol decisions themselves (reply construction,
// candidate selection) live in protocol.hpp, the kernels a real node
// (node.hpp, served over UdpTransport) executes too.
//
// Determinism contract (details in simulator.hpp's header comment): the
// queue breaks time ties by schedule order, handlers run in exact
// (time, seq) pop order on one thread, and every draw comes from a
// (seed, trial, purpose) substream — so a (seed, config) pair fixes the
// entire event trace bit-for-bit regardless of host timing or of how many
// trials run at once.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include <optional>

#include "core/object_pool.hpp"
#include "core/tie_breaking.hpp"
#include "dht/chord.hpp"
#include "net/event_queue.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"
#include "rng/alias_table.hpp"
#include "rng/streams.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/summary.hpp"
#include "store/hash_store.hpp"

namespace geochoice::net {

struct NetConfig {
  /// Ring size n (only used by make_ring/simulate; a caller-supplied ring
  /// fixes n itself).
  std::size_t nodes = 1 << 8;
  /// Keys inserted via wire-level two-choice; 0 means keys = nodes.
  std::uint64_t keys = 0;
  /// Candidate positions per key (d >= 1, <= kMaxChoices).
  int choices = 2;
  /// Maximum insert (and later lookup) operations in flight. 1 serializes
  /// operations — the staleness-free baseline; larger windows let load
  /// replies go stale by the placements in flight.
  std::uint32_t window = 1;
  /// Tie-break among equal-load candidates. kFirstChoice and kLowestIndex
  /// replay run_process exactly; kRandom matches it in distribution (the
  /// draw comes from a dedicated substream). Region-measure ties would
  /// need arc sizes on the wire and are rejected.
  core::TieBreak tie = core::TieBreak::kRandom;
  LatencyModel latency = LatencyModel::constant(1.0);
  /// Measurement lookups issued after all inserts complete.
  std::uint64_t lookups = 0;
  /// Store workload: when > 0, each node carries a store::HashStore and —
  /// after every insert is acknowledged and every lookup answered — the
  /// clients write one value per placed key (kPut, direct to the recorded
  /// owner) and then issue this many Zipf-popular reads (kGet). 0 keeps
  /// the store machinery entirely out of the run: no extra RNG draws, no
  /// new message kinds, so pre-store golden trace hashes stay bit-exact.
  std::uint64_t store_gets = 0;
  /// Zipf exponent of the read key popularity (0 = uniform).
  double store_zipf_alpha = 0.9;
  std::uint64_t seed = 0x6e657473696d2121ULL;  // "netsim!!"
  std::uint64_t trial = 0;
  /// Record the full executed-event trace (tests; costs memory).
  bool collect_trace = false;
  /// Stop after executing this many events, leaving any remaining work —
  /// including in-flight operations — unexecuted. 0 means run to drain.
  /// Bounded runs are how tests tear the simulator down mid-flight.
  std::uint64_t max_events = 0;
  /// Optional message-lifecycle recorder (obs/trace.hpp); not owned, may
  /// be null. Recording reads message fields only — no RNG, no ordering
  /// effect — so golden trace hashes are identical with or without it.
  obs::TraceRecorder* trace = nullptr;

  [[nodiscard]] std::uint64_t insert_count() const noexcept {
    return keys == 0 ? static_cast<std::uint64_t>(nodes) : keys;
  }
};

inline constexpr int kMaxChoices = 16;

/// Aggregate results of one simulation run.
struct NetMetrics {
  std::uint64_t events = 0;  // executed events (= delivered messages + local op starts)
  std::uint64_t links = 0;   // link traversals (the wire cost)
  std::array<std::uint64_t, kMsgTypeCount> links_by_type{};
  /// Total forwarding hops spent routing insert probes — the wire price of
  /// consulting d candidates before placing.
  std::uint64_t probe_hops = 0;
  /// Placements whose owner load had changed between the load reply and
  /// the placement's arrival (two-choice acting on stale information).
  std::uint64_t stale_reads = 0;
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  /// Store workload (zero unless cfg.store_gets > 0).
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_misses = 0;
  std::uint32_t max_load = 0;
  std::vector<std::uint32_t> loads;  // final keys per node (ring order)
  /// Owner node of every placed key, by insert op id — the map the store
  /// phase writes through and the serving harness replays. Recorded for
  /// every run (pure bookkeeping: no RNG, not hash-folded).
  std::vector<std::uint32_t> placements;
  /// Chord path length per lookup: forwards excluding the final delivery
  /// hop onto the owner (the node before it already resolved the query).
  /// Mean ~ 1/2 * log2(n); the full wire path is one hop longer.
  stats::RunningStats lookup_hops;
  stats::RunningStats insert_latency;
  stats::RunningStats lookup_latency;
  stats::RunningStats get_latency;
  stats::P2QuantileSet lookup_hops_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet insert_latency_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet lookup_latency_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet get_latency_q{{0.5, 0.9, 0.99}};
  SimTime end_time = 0.0;
  /// FNV-1a fold of every executed event (time, message fields): the
  /// golden-trace fingerprint the determinism tests pin.
  std::uint64_t trace_hash = 0xcbf29ce484222325ULL;
};

/// One executed event, for full-trace comparisons in tests.
struct TraceEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  Message msg;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

namespace detail {

/// FNV-1a fold of one 64-bit word into the trace fingerprint.
inline void fold(std::uint64_t& h, std::uint64_t w) noexcept {
  h ^= w;
  h *= 0x100000001b3ULL;
}

inline std::uint64_t bits(double x) noexcept {
  return std::bit_cast<std::uint64_t>(x);
}

/// Calendar-queue day-width hint: the latency scale spread over the
/// messages a full window keeps in flight. Only a starting point — the
/// queue re-derives the width from the live schedule as it resizes.
inline SimTime queue_width_hint(const NetConfig& cfg) noexcept {
  const double inflight =
      static_cast<double>(cfg.window) * static_cast<double>(cfg.choices);
  return cfg.latency.mean() / (inflight > 1.0 ? inflight : 1.0);
}

}  // namespace detail

/// Simulator state and handlers. The engine (NetSimulator) builds its
/// run() from execute() / budget_left() / finish().
class SimCore {
 public:
  /// Executed-event trace (empty unless cfg.collect_trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const noexcept {
    return trace_;
  }

 protected:
  /// In-flight operation records live in core::ObjectPool slabs; messages
  /// carry the packed pool handle, so reply handlers reach their op state
  /// with one generation-checked array access instead of a map lookup, and
  /// the steady-state loop allocates nothing. `op` is the sequential
  /// operation id (what the trace hash folds), kept for integrity checks.
  struct InsertOp {
    SimTime start = 0.0;
    std::uint64_t op = 0;
    std::array<std::uint32_t, kMaxChoices> owner{};
    std::array<std::uint32_t, kMaxChoices> load{};
    int replies = 0;
  };
  struct LookupOp {
    SimTime start = 0.0;
    std::uint64_t op = 0;
  };
  /// One in-flight store operation (put or get). For puts op == key_id;
  /// for gets op is the read index and key_id the Zipf-drawn key, kept so
  /// the reply handler can verify the returned value.
  struct StoreOp {
    SimTime start = 0.0;
    std::uint64_t op = 0;
    std::uint64_t key_id = 0;
  };
  using InsertPool = core::ObjectPool<InsertOp>;
  using LookupPool = core::ObjectPool<LookupOp>;
  using StorePool = core::ObjectPool<StoreOp>;

  /// `ring` must outlive the simulator and must have finger tables built.
  SimCore(const dht::ChordRing& ring, const NetConfig& cfg)
      : ring_(&ring),
        cfg_(cfg),
        total_inserts_(cfg.insert_count()),
        transport_(cfg.latency,
                   rng::make_stream(cfg.seed, cfg.trial,
                                    rng::StreamPurpose::kNetLatency),
                   detail::queue_width_hint(cfg)),
        candidates_(rng::make_stream(cfg.seed, cfg.trial,
                                     rng::StreamPurpose::kBallChoices)),
        clients_(rng::make_stream(cfg.seed, cfg.trial,
                                  rng::StreamPurpose::kWorkload)),
        ties_(rng::make_stream(cfg.seed, cfg.trial,
                               rng::StreamPurpose::kTieBreaking)),
        loads_(ring.node_count(), 0) {
    if (!ring.has_fingers()) {
      throw std::invalid_argument(
          "NetSimulator: ring needs build_fingers() for message routing");
    }
    if (cfg.choices < 1 || cfg.choices > kMaxChoices) {
      throw std::invalid_argument("NetSimulator: choices must be in [1, " +
                                  std::to_string(kMaxChoices) + "]");
    }
    if (cfg.window < 1) {
      throw std::invalid_argument("NetSimulator: window must be >= 1");
    }
    if (core::needs_region_measure(cfg.tie)) {
      throw std::invalid_argument(
          "NetSimulator: region-measure tie-breaks would need arc sizes on "
          "the wire; use kFirstChoice, kLowestIndex or kRandom");
    }
    cfg.latency.validate();
    // One slot per windowed operation: after this the pools never allocate.
    insert_ops_.reserve(cfg.window);
    lookup_ops_.reserve(cfg.window);
    metrics_.placements.assign(total_inserts_, 0);
    if (cfg.store_gets > 0) {
      store_ops_.reserve(cfg.window);
      stores_.reserve(ring.node_count());
      for (std::size_t i = 0; i < ring.node_count(); ++i) {
        stores_.emplace_back(store::HashStore::kNeighborhood);
      }
      const auto weights = rng::zipf_weights(
          static_cast<std::size_t>(total_inserts_), cfg.store_zipf_alpha);
      store_keys_.emplace(weights);
    }
  }

  /// Value bytes for a store key: the shared derivation both worlds use
  /// (no RNG beyond the store phase's client picks and Zipf key draws).
  [[nodiscard]] static std::uint64_t store_value(
      std::uint64_t key_id) noexcept {
    return protocol::store_value(key_id);
  }

  [[nodiscard]] std::uint32_t pick_client() {
    return static_cast<std::uint32_t>(
        rng::uniform_below(clients_, ring_->node_count()));
  }

  /// Record one lifecycle observation for `m` (no-op without a recorder).
  /// Simulator time is abstract; one time unit renders as one millisecond
  /// in the exported trace (ts is microseconds).
  void trace_msg(SimTime now, obs::TracePhase phase, const Message& m) {
    obs::TraceRecord r;
    r.ts_us = now * 1000.0;
    r.op = m.op;
    r.node = m.at;
    r.from = m.from;
    r.client = m.client;
    r.hops = m.hops;
    r.load = m.load;
    r.phase = phase;
    r.msg_type = static_cast<std::uint8_t>(m.type);
    cfg_.trace->record(r);
  }

  /// Schedule `m` across one link through the transport seam, which
  /// draws its delay from the kNetLatency substream.
  void send_link(SimTime now, const Message& m) {
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kScheduled, m);
    transport_.send(now, m);
  }

  /// The event schedule, for the drive loop only.
  [[nodiscard]] MessageQueue& queue() noexcept { return transport_.queue(); }

  void issue_insert(SimTime now) {
    const std::uint64_t op = next_insert_++;
    const std::uint32_t client = pick_client();
    // Candidate draws happen at issue time, in operation order — with
    // window = 1 this is exactly the run_process draw order.
    std::array<double, kMaxChoices> candidate{};
    for (int j = 0; j < cfg_.choices; ++j) {
      candidate[static_cast<std::size_t>(j)] = rng::uniform01(candidates_);
    }
    const auto slot = insert_ops_.emplace(InsertOp{now, op, {}, {}, 0}).pack();
    for (int j = 0; j < cfg_.choices; ++j) {
      const double key = candidate[static_cast<std::size_t>(j)];
      transport_.deliver_local(
          now, protocol::make_probe(client, op, static_cast<std::uint8_t>(j),
                                    key, ring_->successor(key), slot));
    }
  }

  void issue_lookup(SimTime now) {
    const std::uint64_t op = next_lookup_++;
    const std::uint32_t client = pick_client();
    const double key = rng::uniform01(candidates_);
    const auto slot = lookup_ops_.emplace(LookupOp{now, op}).pack();
    transport_.deliver_local(
        now,
        protocol::make_lookup(client, op, key, ring_->successor(key), slot));
  }

  /// Write the value for key id `next_put_` to the owner the placement
  /// phase recorded — direct send, one link, like kPlace.
  void issue_put(SimTime now) {
    const std::uint64_t key_id = next_put_++;
    const std::uint32_t client = pick_client();
    const auto slot = store_ops_.emplace(StoreOp{now, key_id, key_id}).pack();
    send_link(now, protocol::make_put(client, metrics_.placements[key_id],
                                      key_id, store_value(key_id), slot));
  }

  /// Read a Zipf-popular key from its recorded owner.
  void issue_get(SimTime now) {
    const std::uint64_t op = next_get_++;
    const auto key_id =
        static_cast<std::uint64_t>(store_keys_->sample(candidates_));
    const std::uint32_t client = pick_client();
    const auto slot = store_ops_.emplace(StoreOp{now, op, key_id}).pack();
    send_link(now, protocol::make_get(client, op, metrics_.placements[key_id],
                                      key_id, slot));
  }

  void advance_phase(SimTime now) {
    while (insert_ops_.live() < cfg_.window && next_insert_ < total_inserts_) {
      issue_insert(now);
    }
    // Lookups measure the settled ring: they start only once every insert
    // has been acknowledged.
    if (done_inserts_ != total_inserts_) return;
    while (lookup_ops_.live() < cfg_.window && next_lookup_ < cfg_.lookups) {
      issue_lookup(now);
    }
    // The store phase runs last — writes need the full placement map, and
    // reads go against the fully written store (a miss is a hard error).
    if (cfg_.store_gets == 0 || metrics_.lookups != cfg_.lookups) return;
    while (store_ops_.live() < cfg_.window && next_put_ < total_inserts_) {
      issue_put(now);
    }
    if (done_puts_ != total_inserts_) return;
    while (store_ops_.live() < cfg_.window && next_get_ < cfg_.store_gets) {
      issue_get(now);
    }
  }

  /// Forward `m` one greedy finger-table hop toward `owner` unless it has
  /// arrived. Returns true when m.at == owner; throws if routing exceeds n
  /// hops.
  bool route_toward(SimTime now, Message& m, std::uint32_t owner) {
    const std::uint32_t here = m.at;
    if (here == owner) return true;
    // Greedy routing strictly advances toward the key, so a message can
    // never revisit a node: more than n forwards means the finger logic is
    // broken. Fail loudly instead of letting the event queue spin forever
    // (the cycle guard ChordRing::lookup keeps for the same loop).
    if (m.hops >= ring_->node_count()) {
      throw std::logic_error("NetSimulator: routing exceeded n hops (cycle?)");
    }
    m.from = here;
    ++m.hops;
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kForwarded, m);
    m.at = ring_->next_hop(here, m.key);
    send_link(now, m);
    return false;
  }

  /// A probe has arrived at its candidate owner `m.at`: answer with the
  /// owner's load *now* (the reply-time snapshot the staleness study is
  /// about).
  void on_probe(SimTime now, Message m) {
    if (!route_toward(now, m, m.dest)) return;
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kDelivered, m);
    send_link(now, protocol::make_probe_reply(m, loads_[m.at]));
  }

  void on_probe_reply(SimTime now, const Message& m) {
    auto& op = insert_ops_.get(InsertPool::Handle::unpack(m.slot));
    if (op.op != m.op) {
      throw std::logic_error(
          "NetSimulator: probe reply for a recycled op slot");
    }
    op.owner[m.probe] = m.from;
    op.load[m.probe] = m.load;
    metrics_.probe_hops += m.hops;
    if (++op.replies < cfg_.choices) return;

    // All d replies in: pick the least-loaded candidate. The loads compared
    // here are reply-time snapshots — under a wide window they may already
    // be stale.
    const int best = protocol::pick_best_candidate(
        op.owner.data(), op.load.data(), cfg_.choices, cfg_.tie, ties_);
    const auto bs = static_cast<std::size_t>(best);
    send_link(now, protocol::make_place(m.client, m.op,
                                        static_cast<std::uint8_t>(best),
                                        op.owner[bs], op.load[bs], m.slot));
  }

  void on_place(SimTime now, const Message& m) {
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kDelivered, m);
    const std::uint32_t here = m.at;
    if (loads_[here] != m.load) ++metrics_.stale_reads;
    const std::uint32_t new_load = ++loads_[here];
    if (new_load > metrics_.max_load) metrics_.max_load = new_load;
    metrics_.placements[m.op] = here;
    send_link(now, protocol::make_place_ack(m));
  }

  void on_place_ack(SimTime now, const Message& m) {
    const auto h = InsertPool::Handle::unpack(m.slot);
    const double latency = now - insert_ops_.get(h).start;
    insert_ops_.release(h);
    metrics_.insert_latency.add(latency);
    metrics_.insert_latency_q.add(latency);
    ++metrics_.inserts;
    ++done_inserts_;
    advance_phase(now);
  }

  void on_lookup(SimTime now, Message m) {
    if (!route_toward(now, m, m.dest)) return;
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kDelivered, m);
    send_link(now, protocol::make_lookup_reply(m));
  }

  void on_lookup_reply(SimTime now, const Message& m) {
    const auto h = LookupPool::Handle::unpack(m.slot);
    const LookupOp& op = lookup_ops_.get(h);
    if (op.op != m.op) {
      throw std::logic_error("NetSimulator: lookup reply for a recycled slot");
    }
    const double latency = now - op.start;
    lookup_ops_.release(h);
    const double route_hops = protocol::route_hops_of(m.hops);
    metrics_.lookup_hops.add(route_hops);
    metrics_.lookup_hops_q.add(route_hops);
    metrics_.lookup_latency.add(latency);
    metrics_.lookup_latency_q.add(latency);
    ++metrics_.lookups;
    advance_phase(now);
  }

  // The four store handlers: direct messages, one link each, no routing.

  void on_put(SimTime now, const Message& m) {
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kDelivered, m);
    stores_[m.at].put_u64(m.op, m.value);
    ++metrics_.puts;
    send_link(now, protocol::make_put_ack(m));
  }

  void on_put_ack(SimTime now, const Message& m) {
    const auto h = StorePool::Handle::unpack(m.slot);
    if (store_ops_.get(h).key_id != m.op) {
      throw std::logic_error("NetSimulator: put ack for a recycled op slot");
    }
    store_ops_.release(h);
    ++done_puts_;
    advance_phase(now);
  }

  void on_get(SimTime now, const Message& m) {
    if (cfg_.trace != nullptr) trace_msg(now, obs::TracePhase::kDelivered, m);
    const auto v = stores_[m.at].get_u64(m.value);
    send_link(now, protocol::make_get_reply(m, v.has_value(), v.value_or(0)));
  }

  void on_get_reply(SimTime now, const Message& m) {
    const auto h = StorePool::Handle::unpack(m.slot);
    const StoreOp& op = store_ops_.get(h);
    if (op.op != m.op) {
      throw std::logic_error("NetSimulator: get reply for a recycled op slot");
    }
    if (m.probe == 0) {
      ++metrics_.get_misses;
    } else if (m.value != store_value(op.key_id)) {
      // Every key was written before the read phase starts, so a wrong
      // value means the store or the wire corrupted it.
      throw std::logic_error("NetSimulator: get returned a wrong value");
    }
    const double latency = now - op.start;
    store_ops_.release(h);
    metrics_.get_latency.add(latency);
    metrics_.get_latency_q.add(latency);
    ++metrics_.gets;
    advance_phase(now);
  }

  void on_event(SimTime now, const Message& m) {
    switch (m.type) {
      case MsgType::kProbe:
        on_probe(now, m);
        return;
      case MsgType::kProbeReply:
        on_probe_reply(now, m);
        return;
      case MsgType::kPlace:
        on_place(now, m);
        return;
      case MsgType::kPlaceAck:
        on_place_ack(now, m);
        return;
      case MsgType::kLookup:
        on_lookup(now, m);
        return;
      case MsgType::kLookupReply:
        on_lookup_reply(now, m);
        return;
      case MsgType::kPut:
        on_put(now, m);
        return;
      case MsgType::kPutAck:
        on_put_ack(now, m);
        return;
      case MsgType::kGet:
        on_get(now, m);
        return;
      case MsgType::kGetReply:
        on_get_reply(now, m);
        return;
    }
    throw std::logic_error("NetSimulator: unknown message type");
  }

  /// Execute one popped event: count it, fold the trace hash, record the
  /// trace entry, dispatch the handler.
  void execute(const MessageQueue::Event& e) {
    ++metrics_.events;
    metrics_.end_time = e.time;
    detail::fold(metrics_.trace_hash, detail::bits(e.time));
    detail::fold(metrics_.trace_hash, e.seq);
    detail::fold(metrics_.trace_hash,
                 (static_cast<std::uint64_t>(e.payload.type) << 48) ^
                     (static_cast<std::uint64_t>(e.payload.at) << 16) ^
                     e.payload.probe);
    detail::fold(metrics_.trace_hash,
                 (static_cast<std::uint64_t>(e.payload.client) << 32) ^
                     e.payload.hops);
    detail::fold(metrics_.trace_hash, e.payload.op);
    detail::fold(metrics_.trace_hash, detail::bits(e.payload.key));
    detail::fold(metrics_.trace_hash, e.payload.load);
    if (cfg_.collect_trace) trace_.push_back({e.time, e.seq, e.payload});
    if (cfg_.trace != nullptr) {
      trace_msg(e.time, obs::TracePhase::kPopped, e.payload);
    }
    on_event(e.time, e.payload);
  }

  /// True while the max_events budget (if any) has room for another event.
  [[nodiscard]] bool budget_left() const noexcept {
    return cfg_.max_events == 0 || metrics_.events < cfg_.max_events;
  }

  /// Mark the run started (throws on reuse) and seed the first window of
  /// operations.
  void begin_run(const char* engine) {
    if (ran_) {
      throw std::logic_error(std::string(engine) + "::run: single-shot");
    }
    ran_ = true;
    advance_phase(0.0);
  }

  /// Snapshot final per-node loads, pull the wire cost out of the
  /// transport, and hand the metrics out. Registry counters are added in
  /// one bulk pass here — never per event — so an enabled-but-idle run
  /// costs a handful of adds per trial (the obs_overhead gate).
  NetMetrics finish() {
    metrics_.links = transport_.links().total;
    metrics_.links_by_type = transport_.links().by_type;
    metrics_.loads = loads_;
    if (obs::enabled()) {
      static const obs::Counter c_events("net.events");
      static const obs::Counter c_links("net.links");
      static const obs::Counter c_inserts("net.inserts");
      static const obs::Counter c_lookups("net.lookups");
      static const obs::Counter c_probe_hops("net.probe_hops");
      static const obs::Counter c_stale("net.stale_reads");
      c_events.add(metrics_.events);
      c_links.add(metrics_.links);
      c_inserts.add(metrics_.inserts);
      c_lookups.add(metrics_.lookups);
      c_probe_hops.add(metrics_.probe_hops);
      c_stale.add(metrics_.stale_reads);
    }
    return metrics_;
  }

  const dht::ChordRing* ring_;
  NetConfig cfg_;
  std::uint64_t total_inserts_;
  SimTransport transport_;
  rng::DefaultEngine candidates_;
  rng::DefaultEngine clients_;
  rng::DefaultEngine ties_;
  std::vector<std::uint32_t> loads_;
  /// One HashStore per simulated node; empty unless cfg.store_gets > 0.
  std::vector<store::HashStore> stores_;
  /// Zipf popularity over inserted keys for the read phase.
  std::optional<rng::AliasTable> store_keys_;
  InsertPool insert_ops_;
  LookupPool lookup_ops_;
  StorePool store_ops_;
  std::uint64_t next_insert_ = 0;
  std::uint64_t next_lookup_ = 0;
  std::uint64_t done_inserts_ = 0;
  std::uint64_t next_put_ = 0;
  std::uint64_t done_puts_ = 0;
  std::uint64_t next_get_ = 0;
  bool ran_ = false;
  NetMetrics metrics_;
  std::vector<TraceEvent> trace_;
};

}  // namespace geochoice::net
