// node.hpp — one node's protocol logic, written against the Transport
// seam: the one implementation of the protocol. NetSimulator,
// run_loopback_cluster and dht_node host it in a NodeHost (host.hpp): a
// NodeLogic per ring node and the ClientDriver on node 0, over
// SimTransport in the simulator and UdpTransport on sockets. perfbench's
// serve runs the same templates over UdpTransport with its own pump.
//
//   * NodeLogic: the server half. Routes probes/lookups one Chord hop
//     (ring.next_hop), answers the ones it owns, applies placements, and
//     serves values from a HashStore built on the first kPut (kPut is an
//     idempotent overwrite, so retransmits need no dedup). Its
//     at-most-once set holds every placement it applied, so a
//     retransmitted kPlace never counts twice.
//   * ClientDriver: the client half. Issues the inserts, then lookups,
//     then puts and gets; picks candidates with
//     protocol::pick_best_candidate from the kBallChoices substream; arms
//     a retransmit alarm per op; and reads every node's load back with a
//     census once the workload has drained.
//
// Determinism contract between the worlds (the differential oracle):
// with window = 1 and a deterministic tie-break, a placement depends only
// on the candidate-key stream and the serial load evolution — never on
// message timing or routing paths — so the cluster's placements must be
// bit-identical to NetSimulator's, duplicated, delayed or reordered
// datagrams included (tests/test_udp_cluster.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/object_pool.hpp"
#include "core/tie_breaking.hpp"
#include "dht/chord.hpp"
#include "net/message.hpp"
#include "net/protocol.hpp"
#include "obs/trace.hpp"
#include "rng/alias_table.hpp"
#include "rng/streams.hpp"
#include "stats/p2_quantile.hpp"
#include "stats/summary.hpp"
#include "store/hash_store.hpp"

namespace geochoice::net {

/// The server half: route or serve. One instance per node process (plus
/// one co-located with the driver for node 0).
template <typename Transport>
class NodeLogic {
 public:
  /// `ring` must have finger tables built; every process derives the
  /// identical ring from the shared (seed, trial). `trace` (optional, not
  /// owned) records forwarded/delivered lifecycle events, in either world.
  NodeLogic(const dht::ChordRing& ring, std::uint32_t self,
            Transport& transport, obs::TraceRecorder* trace = nullptr)
      : ring_(&ring), self_(self), transport_(&transport), trace_(trace) {}

  /// Handle one request datagram (kProbe / kPlace / kLookup / kPut /
  /// kGet). Reply types are the client's business — route them to a
  /// ClientDriver.
  void on_message(const Message& msg) {
    switch (msg.type) {
      case MsgType::kProbe:
      case MsgType::kLookup: {
        Message m = msg;
        if (!route(m)) return;
        trace_event(obs::TracePhase::kDelivered, m);
        transport_->send(m.type == MsgType::kProbe
                             ? protocol::make_probe_reply(m, load_)
                             : protocol::make_lookup_reply(m));
        return;
      }
      case MsgType::kPlace:
        on_place(msg);
        return;
      case MsgType::kPut: {
        // Direct message (the client knows our address from the placement
        // phase): store and ack. Overwrite semantics make a retransmitted
        // put — its first ack lost — naturally at-most-once.
        trace_event(obs::TracePhase::kDelivered, msg);
        if (!store_) {
          store_ = std::make_unique<store::HashStore>(
              store::HashStore::kNeighborhood);
        }
        store_->put_u64(msg.op, msg.value);
        transport_->send(protocol::make_put_ack(msg));
        return;
      }
      case MsgType::kGet: {
        trace_event(obs::TracePhase::kDelivered, msg);
        const std::optional<std::uint64_t> v =
            store_ ? store_->get_u64(msg.value) : std::nullopt;
        transport_->send(
            protocol::make_get_reply(msg, v.has_value(), v.value_or(0)));
        return;
      }
      default:
        break;  // replies and acks: not ours
    }
  }

  [[nodiscard]] std::uint32_t load() const noexcept { return load_; }
  [[nodiscard]] std::uint64_t stale_reads() const noexcept { return stale_; }
  /// Distinct keys with a stored value (== the store's live key count).
  [[nodiscard]] std::uint64_t keys_stored() const noexcept {
    return store_ ? store_->size() : 0;
  }

 private:
  /// Forward one greedy Chord hop unless the message has arrived
  /// (m.dest == self). Greedy routing strictly advances toward the key,
  /// so more than n forwards means the finger logic is broken: fail
  /// loudly instead of ricocheting messages forever.
  bool route(Message& m) {
    if (m.dest == self_) return true;
    if (m.hops >= ring_->node_count()) {
      throw std::logic_error("NodeLogic: routing exceeded n hops (cycle?)");
    }
    m.from = self_;
    ++m.hops;
    m.at = ring_->next_hop(self_, m.key);
    trace_event(obs::TracePhase::kForwarded, m);
    transport_->send(m);
    return false;
  }

  void trace_event(obs::TracePhase phase, const Message& m) {
    if (trace_ == nullptr) return;
    trace_->record(protocol::trace_record(
        phase, m, static_cast<double>(transport_->now_us()), self_, m.from));
  }

  void on_place(const Message& m) {
    trace_event(obs::TracePhase::kDelivered, m);
    // At-most-once: a retransmitted kPlace (its ack was lost) must not
    // count the key twice — resend the ack and change nothing.
    // Op ids rise with issue order, so a new key almost always goes last.
    const std::uint64_t key = op_key(m.client, m.op);
    if (placed_.empty() || placed_.back() < key) {
      if (placed_.empty()) placed_.reserve(kPlacedReserve);
      placed_.push_back(key);
    } else {
      const auto at = std::lower_bound(placed_.begin(), placed_.end(), key);
      if (*at == key) {
        transport_->send(protocol::make_place_ack(m));
        return;
      }
      placed_.insert(at, key);
    }
    if (load_ != m.load) ++stale_;
    ++load_;
    transport_->send(protocol::make_place_ack(m));
  }

  [[nodiscard]] static std::uint64_t op_key(std::uint32_t client,
                                            std::uint64_t op) noexcept {
    // op is a per-client sequence number; 2^40 ops per client is far past
    // any run this serves.
    return (static_cast<std::uint64_t>(client) << 40) ^ op;
  }

  const dht::ChordRing* ring_;
  std::uint32_t self_;
  Transport* transport_;
  obs::TraceRecorder* trace_ = nullptr;
  std::uint32_t load_ = 0;
  std::uint64_t stale_ = 0;
  /// op_key of every placement applied here, ascending; the first
  /// reserves room for kPlacedReserve (grown from one, 16 keys cost five
  /// allocations).
  static constexpr std::size_t kPlacedReserve = 16;
  std::vector<std::uint64_t> placed_;
  /// Built by the first kPut, at the minimum capacity: a simulation builds
  /// thousands of nodes, most of which never store a value.
  std::unique_ptr<store::HashStore> store_;
};

/// The client's view of a finished run, the `client` half of the
/// WireResult (host.hpp) both worlds return.
struct DriverReport {
  /// Owner node of insert op i — the differential-test surface.
  std::vector<std::uint32_t> placements;
  /// Final load per node, read back by census probes after the workload.
  std::vector<std::uint32_t> loads;
  std::uint32_t max_load = 0;
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  /// Forwarding hops of the probe replies the inserts used.
  std::uint64_t probe_hops = 0;
  /// Chord path length per lookup (protocol::route_hops_of).
  stats::RunningStats lookup_hops;
  stats::P2QuantileSet lookup_hops_q{{0.5, 0.9, 0.99}};
  /// Workload datagrams resent after a retransmit alarm (probe, place,
  /// lookup phases): actual suspected loss on the data path.
  std::uint64_t data_retransmits = 0;
  /// Census probes re-issued after their alarm. The census is a read-only
  /// poll of one node at a time — a retry costs a probe round-trip, never
  /// a duplicate placement — so it is accounted apart from data loss.
  std::uint64_t census_retries = 0;
  [[nodiscard]] std::uint64_t total_retransmits() const noexcept {
    return data_retransmits + census_retries;
  }
  /// Store phase: value writes acknowledged, reads answered, and reads
  /// the owner missed (zero on any transport that delivers eventually —
  /// every get targets a key its put already stored).
  std::uint64_t puts = 0;
  std::uint64_t gets = 0;
  std::uint64_t get_misses = 0;
  /// From an op's first send to its answer, in the transport's µs.
  stats::RunningStats insert_latency_us;
  stats::RunningStats lookup_latency_us;
  stats::RunningStats get_latency_us;
  stats::P2QuantileSet insert_latency_us_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet lookup_latency_us_q{{0.5, 0.9, 0.99}};
  stats::P2QuantileSet get_latency_us_q{{0.5, 0.9, 0.99}};
};

struct DriverConfig {
  std::uint64_t inserts = 0;
  std::uint64_t lookups = 0;
  int choices = 2;
  std::uint32_t window = 1;
  core::TieBreak tie = core::TieBreak::kFirstChoice;
  std::uint64_t seed = 0;
  std::uint64_t trial = 0;
  /// Store reads issued once every key has been put; 0 keeps the store
  /// phases — and the RNG draws their key sampling consumes — entirely
  /// out of the run (NetConfig::store_gets passes through here).
  std::uint64_t store_gets = 0;
  /// Zipf exponent of the read key popularity (0 = uniform).
  double store_zipf_alpha = 0.9;
  /// Retransmit alarm per in-flight op phase. Loopback never needs it;
  /// it exists so a dropped datagram stalls an op for milliseconds, not
  /// forever (simulated milliseconds in the simulator).
  std::uint64_t retransmit_ms = 50;
  /// Optional message-lifecycle recorder (not owned, may be null); the
  /// driver records scheduled/delivered/retransmitted events into it.
  obs::TraceRecorder* trace = nullptr;
};

/// The client half: drives the workload, then reads every node's final
/// load back with census probes. Pump the owning transport and feed
/// replies to on_reply / fired timers to on_timer until done().
template <typename Transport>
class ClientDriver {
 public:
  /// The op clock, of the transport's now_us() type: uint64_t over UDP,
  /// SimTime in the simulator, so simulated latencies keep their precision.
  using Clock = std::remove_cvref_t<
      decltype(std::declval<const Transport&>().now_us())>;

  ClientDriver(const dht::ChordRing& ring, const DriverConfig& cfg,
               Transport& transport)
      : ring_(&ring),
        cfg_(cfg),
        transport_(&transport),
        candidates_(rng::make_stream(cfg.seed, cfg.trial,
                                     rng::StreamPurpose::kBallChoices)),
        ties_(rng::make_stream(cfg.seed, cfg.trial,
                               rng::StreamPurpose::kTieBreaking)) {
    if (cfg.choices < 1 || cfg.choices > kMaxChoices) {
      throw std::invalid_argument("ClientDriver: choices must be in [1, " +
                                  std::to_string(kMaxChoices) + "]");
    }
    if (cfg.window < 1) {
      throw std::invalid_argument("ClientDriver: window must be >= 1");
    }
    if (core::needs_region_measure(cfg.tie)) {
      throw std::invalid_argument(
          "ClientDriver: region-measure tie-breaks need arc sizes the wire "
          "does not carry");
    }
    report_.placements.assign(cfg.inserts, 0);
    insert_ops_.reserve(cfg.window);
    lookup_ops_.reserve(cfg.window);
    if (cfg.store_gets > 0) {
      if (cfg.inserts == 0) {
        throw std::invalid_argument(
            "ClientDriver: store gets need inserted keys to read");
      }
      store_keys_.emplace(
          rng::zipf_weights(cfg.inserts, cfg.store_zipf_alpha));
      store_ops_.reserve(cfg.window);
    }
  }

  /// Issue the first window. Call once, then pump the transport.
  void start() { advance(); }

  /// Every insert, lookup, put and get answered: only the census is left.
  [[nodiscard]] bool workload_done() const noexcept {
    const std::uint64_t puts = cfg_.store_gets > 0 ? cfg_.inserts : 0;
    return report_.inserts == cfg_.inserts &&
           report_.lookups == cfg_.lookups && report_.puts == puts &&
           report_.gets == cfg_.store_gets;
  }

  /// The census has read every node's load back.
  [[nodiscard]] bool done() const noexcept {
    return census_got_ == ring_->node_count();
  }

  /// The finished run's report; meaningful once done().
  [[nodiscard]] const DriverReport& report() const noexcept { return report_; }

  /// Handle one reply datagram (kProbeReply / kPlaceAck / kLookupReply /
  /// kPutAck / kGetReply). Duplicates — a retransmitted request whose
  /// first answer also made it — are detected and dropped at every step;
  /// real networks deliver twice.
  void on_reply(const Message& m) {
    switch (m.type) {
      case MsgType::kProbeReply:
        if (m.probe == protocol::kCensusProbe) {
          on_census_reply(m);
        } else {
          on_probe_reply(m);
        }
        return;
      case MsgType::kPlaceAck:
        on_place_ack(m);
        return;
      case MsgType::kLookupReply:
        on_lookup_reply(m);
        return;
      case MsgType::kPutAck:
        on_put_ack(m);
        return;
      case MsgType::kGetReply:
        on_get_reply(m);
        return;
      default:
        return;  // a request echoed back is noise, not ours to serve
    }
  }

  /// A retransmit alarm fired: resend whatever the op is still waiting
  /// for. The timer payload carries the op's packed pool handle.
  void on_timer(const Message& t) {
    switch (t.type) {
      case MsgType::kProbe: {
        InsertOp* op = insert_ops_.try_get(InsertPool::Handle::unpack(t.slot));
        if (op == nullptr || op->op != t.op) return;  // op completed: stale
        resend_insert(*op, t.slot);
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kLookup: {
        LookupOp* op = lookup_ops_.try_get(LookupPool::Handle::unpack(t.slot));
        if (op == nullptr || op->op != t.op) return;
        resend(lookup_message(*op, t.slot));
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kPut:
      case MsgType::kGet: {
        // Resending the identical put is safe: the owner overwrites with
        // the same bytes.
        StoreOp* op = store_ops_.try_get(StorePool::Handle::unpack(t.slot));
        if (op == nullptr || op->is_get != (t.type == MsgType::kGet) ||
            op->op != t.op) {
          return;
        }
        resend(store_message(*op, t.slot));
        op->timer = transport_->schedule(cfg_.retransmit_ms, t);
        return;
      }
      case MsgType::kProbeReply:  // the census alarm
        if (census_got_ < ring_->node_count() &&
            census_next_ > census_got_) {
          ++report_.census_retries;
          send_census(census_got_);
          census_timer_ = arm(MsgType::kProbeReply, 0, 0);
        }
        return;
      default:
        return;
    }
  }

 private:
  enum class Phase : std::uint8_t { kProbing, kPlacing };

  struct InsertOp {  // keys last: with a small d, the tail stays cold
    Clock start_us{};
    std::uint64_t op = 0;
    std::uint32_t replied = 0;  // bitmask over probe indices
    int replies = 0;
    Phase phase = Phase::kProbing;
    int best = 0;
    typename Transport::Timer timer{};
    std::array<std::uint32_t, kMaxChoices> owner{};
    std::array<std::uint32_t, kMaxChoices> load{};
    std::array<double, kMaxChoices> key{};
  };
  struct LookupOp {
    Clock start_us{};
    std::uint64_t op = 0;
    double key = 0.0;
    typename Transport::Timer timer{};
  };
  /// One in-flight store op; puts and gets share the pool, the
  /// discriminator keeps a stale ack for one kind from matching a
  /// recycled slot holding the other.
  struct StoreOp {
    Clock start_us{};
    std::uint64_t op = 0;      // put: the key id itself; get: read index
    std::uint64_t key_id = 0;
    bool is_get = false;
    typename Transport::Timer timer{};
  };
  using InsertPool = core::ObjectPool<InsertOp>;
  using LookupPool = core::ObjectPool<LookupOp>;
  using StorePool = core::ObjectPool<StoreOp>;

  [[nodiscard]] std::uint32_t self() const noexcept {
    return transport_->self();
  }

  void trace_event(obs::TracePhase phase, const Message& m) {
    if (cfg_.trace == nullptr) return;
    cfg_.trace->record(protocol::trace_record(
        phase, m, static_cast<double>(transport_->now_us()), m.at, self()));
  }

  void advance() {
    while (insert_ops_.live() < cfg_.window && next_insert_ < cfg_.inserts) {
      issue_insert();
    }
    if (report_.inserts != cfg_.inserts) return;
    while (lookup_ops_.live() < cfg_.window && next_lookup_ < cfg_.lookups) {
      issue_lookup();
    }
    if (report_.lookups != cfg_.lookups) return;
    // Store phases: write every placed key's value to the owner the
    // placement phase recorded, then read keys back with Zipf popularity.
    if (cfg_.store_gets > 0) {
      while (store_ops_.live() < cfg_.window && next_put_ < cfg_.inserts) {
        issue_put();
      }
      if (report_.puts != cfg_.inserts) return;
      while (store_ops_.live() < cfg_.window && next_get_ < cfg_.store_gets) {
        issue_get();
      }
    }
    if (!workload_done()) return;
    // Workload drained: read the final loads back. One census probe in
    // flight at a time keeps this trivially at-most-once.
    if (census_next_ == census_got_ && census_next_ < ring_->node_count()) {
      send_census(census_next_++);
      census_timer_ = arm(MsgType::kProbeReply, 0, 0);
    }
  }

  /// Arm op `op`'s retransmit alarm; on_timer reads `type` for its kind.
  typename Transport::Timer arm(MsgType type, std::uint64_t op,
                                std::uint64_t slot) {
    Message alarm;
    alarm.type = type;
    alarm.op = op;
    alarm.slot = slot;
    return transport_->schedule(cfg_.retransmit_ms, alarm);
  }

  /// Resend what an op is waiting for, after its alarm fired.
  void resend(const Message& m) {
    ++report_.data_retransmits;
    trace_event(obs::TracePhase::kRetransmit, m);
    transport_->send(m);
  }

  [[nodiscard]] Message lookup_message(const LookupOp& op,
                                       std::uint64_t slot) const {
    return protocol::make_lookup(self(), op.op, op.key,
                                 ring_->successor(op.key), slot);
  }

  /// A put carries the key's value, a get asks for it; both go straight
  /// to the owner the placement phase recorded.
  [[nodiscard]] Message store_message(const StoreOp& op,
                                      std::uint64_t slot) const {
    if (op.is_get) {
      return protocol::make_get(self(), op.op, owner_of(op.key_id), op.key_id,
                                slot);
    }
    return protocol::make_put(self(), owner_of(op.key_id), op.key_id,
                              protocol::store_value(op.key_id), slot);
  }

  void issue_insert() {
    const std::uint64_t op_id = next_insert_++;
    const auto handle = insert_ops_.emplace();
    InsertOp& live = insert_ops_.get(handle);
    live.start_us = transport_->now_us();
    live.op = op_id;
    // The one stream both worlds share: candidate keys drawn at issue
    // time, in operation order.
    for (int j = 0; j < cfg_.choices; ++j) {
      live.key[static_cast<std::size_t>(j)] = rng::uniform01(candidates_);
    }
    const std::uint64_t slot = handle.pack();
    for (int j = 0; j < cfg_.choices; ++j) {
      const double key = live.key[static_cast<std::size_t>(j)];
      const Message m = protocol::make_probe(
          self(), op_id, static_cast<std::uint8_t>(j), key,
          ring_->successor(key), slot);
      trace_event(obs::TracePhase::kScheduled, m);
      transport_->send(m);
    }
    live.timer = arm(MsgType::kProbe, op_id, slot);
  }

  void issue_lookup() {
    const std::uint64_t op_id = next_lookup_++;
    LookupOp rec;
    rec.start_us = transport_->now_us();
    rec.op = op_id;
    rec.key = rng::uniform01(candidates_);
    const auto handle = lookup_ops_.emplace(rec);
    const std::uint64_t slot = handle.pack();
    const Message m = lookup_message(rec, slot);
    trace_event(obs::TracePhase::kScheduled, m);
    transport_->send(m);
    lookup_ops_.get(handle).timer = arm(MsgType::kLookup, op_id, slot);
  }

  /// The node the placement phase recorded for `key_id` — the address
  /// every store op for that key goes to directly.
  [[nodiscard]] std::uint32_t owner_of(std::uint64_t key_id) const noexcept {
    return report_.placements[key_id];
  }

  void issue_put() {
    const std::uint64_t key_id = next_put_++;
    StoreOp rec;
    rec.start_us = transport_->now_us();
    rec.op = key_id;
    rec.key_id = key_id;
    const auto handle = store_ops_.emplace(rec);
    const std::uint64_t slot = handle.pack();
    const Message m = store_message(rec, slot);
    trace_event(obs::TracePhase::kScheduled, m);
    transport_->send(m);
    store_ops_.get(handle).timer = arm(MsgType::kPut, key_id, slot);
  }

  void issue_get() {
    const std::uint64_t op_id = next_get_++;
    StoreOp rec;
    rec.start_us = transport_->now_us();
    rec.op = op_id;
    // Key popularity drawn from the candidate stream at issue time, in
    // operation order.
    rec.key_id = store_keys_->sample(candidates_);
    rec.is_get = true;
    const auto handle = store_ops_.emplace(rec);
    const std::uint64_t slot = handle.pack();
    const Message m = store_message(rec, slot);
    trace_event(obs::TracePhase::kScheduled, m);
    transport_->send(m);
    store_ops_.get(handle).timer = arm(MsgType::kGet, op_id, slot);
  }

  void resend_insert(const InsertOp& op, std::uint64_t slot) {
    ++report_.data_retransmits;
    if (op.phase == Phase::kProbing) {
      for (int j = 0; j < cfg_.choices; ++j) {
        if (op.replied & (1u << j)) continue;  // that reply already landed
        const double key = op.key[static_cast<std::size_t>(j)];
        const Message m = protocol::make_probe(
            self(), op.op, static_cast<std::uint8_t>(j), key,
            ring_->successor(key), slot);
        trace_event(obs::TracePhase::kRetransmit, m);
        transport_->send(m);
      }
    } else {
      const auto bs = static_cast<std::size_t>(op.best);
      const Message m = protocol::make_place(
          self(), op.op, static_cast<std::uint8_t>(op.best), op.owner[bs],
          op.load[bs], slot);
      trace_event(obs::TracePhase::kRetransmit, m);
      transport_->send(m);
    }
  }

  void on_probe_reply(const Message& m) {
    InsertOp* op = insert_ops_.try_get(InsertPool::Handle::unpack(m.slot));
    if (op == nullptr || op->op != m.op) return;       // op already done
    if (op->phase != Phase::kProbing) return;          // late straggler
    if (m.probe >= kMaxChoices) return;                // corrupt index
    const std::uint32_t bit = 1u << m.probe;
    if (op->replied & bit) return;                     // duplicate reply
    op->replied |= bit;
    op->owner[m.probe] = m.from;
    op->load[m.probe] = m.load;
    report_.probe_hops += m.hops;
    if (++op->replies < cfg_.choices) return;

    // All d replies in: pick the least-loaded candidate. The loads are
    // reply-time snapshots; under a wide window they may already be stale.
    op->best = protocol::pick_best_candidate(op->owner.data(), op->load.data(),
                                             cfg_.choices, cfg_.tie, ties_);
    op->phase = Phase::kPlacing;
    const auto bs = static_cast<std::size_t>(op->best);
    report_.placements[op->op] = op->owner[bs];
    transport_->send(protocol::make_place(m.client, m.op,
                                          static_cast<std::uint8_t>(op->best),
                                          op->owner[bs], op->load[bs],
                                          m.slot));
  }

  void on_place_ack(const Message& m) {
    const auto h = InsertPool::Handle::unpack(m.slot);
    InsertOp* op = insert_ops_.try_get(h);
    if (op == nullptr || op->op != m.op) return;  // duplicate ack
    if (op->phase != Phase::kPlacing) return;     // ack without a place?
    trace_event(obs::TracePhase::kDelivered, m);
    transport_->cancel(op->timer);  // armed while the op lives
    const double us = static_cast<double>(transport_->now_us() - op->start_us);
    report_.insert_latency_us.add(us);
    report_.insert_latency_us_q.add(us);
    insert_ops_.release(h);
    ++report_.inserts;
    advance();
  }

  void on_lookup_reply(const Message& m) {
    const auto h = LookupPool::Handle::unpack(m.slot);
    LookupOp* op = lookup_ops_.try_get(h);
    if (op == nullptr || op->op != m.op) return;  // duplicate reply
    trace_event(obs::TracePhase::kDelivered, m);
    transport_->cancel(op->timer);  // armed while the op lives
    const double us = static_cast<double>(transport_->now_us() - op->start_us);
    report_.lookup_latency_us.add(us);
    report_.lookup_latency_us_q.add(us);
    const double hops = protocol::route_hops_of(m.hops);
    report_.lookup_hops.add(hops);
    report_.lookup_hops_q.add(hops);
    lookup_ops_.release(h);
    ++report_.lookups;
    advance();
  }

  void on_put_ack(const Message& m) {
    const auto h = StorePool::Handle::unpack(m.slot);
    StoreOp* op = store_ops_.try_get(h);
    if (op == nullptr || op->is_get || op->op != m.op) return;  // duplicate
    trace_event(obs::TracePhase::kDelivered, m);
    transport_->cancel(op->timer);  // armed while the op lives
    store_ops_.release(h);
    ++report_.puts;
    advance();
  }

  void on_get_reply(const Message& m) {
    const auto h = StorePool::Handle::unpack(m.slot);
    StoreOp* op = store_ops_.try_get(h);
    if (op == nullptr || !op->is_get || op->op != m.op) return;  // duplicate
    trace_event(obs::TracePhase::kDelivered, m);
    transport_->cancel(op->timer);  // armed while the op lives
    if (m.probe == 0) {
      ++report_.get_misses;
    } else if (m.value != protocol::store_value(op->key_id)) {
      // Values are a fixed function of the key in both worlds; anything
      // else is corruption, not load.
      throw std::logic_error("ClientDriver: get returned a wrong value");
    }
    const double us = static_cast<double>(transport_->now_us() - op->start_us);
    report_.get_latency_us.add(us);
    report_.get_latency_us_q.add(us);
    store_ops_.release(h);
    ++report_.gets;
    advance();
  }

  void send_census(std::uint32_t node) {
    // successor(node_id(i)) == i: a probe keyed at the node's own ring
    // position lands exactly there. Probes mutate nothing server-side, so
    // census retransmits need no dedup.
    transport_->send(protocol::make_probe(self(), node, protocol::kCensusProbe,
                                          ring_->node_id(node), node, 0));
  }

  void on_census_reply(const Message& m) {
    // Not the probe in flight: a duplicate, or out of order.
    if (m.op != census_got_ || census_next_ == census_got_) return;
    transport_->cancel(census_timer_);  // armed while a probe is in flight
    report_.loads.push_back(m.load);
    if (m.load > report_.max_load) report_.max_load = m.load;
    ++census_got_;
    advance();
  }

  const dht::ChordRing* ring_;
  DriverConfig cfg_;
  Transport* transport_;
  rng::DefaultEngine candidates_;
  rng::DefaultEngine ties_;
  InsertPool insert_ops_;
  LookupPool lookup_ops_;
  StorePool store_ops_;
  /// Read-key popularity; engaged only when the store phases run.
  std::optional<rng::AliasTable> store_keys_;
  std::uint64_t next_insert_ = 0;
  std::uint64_t next_lookup_ = 0;
  std::uint64_t next_put_ = 0;
  std::uint64_t next_get_ = 0;
  std::uint32_t census_next_ = 0;
  std::uint32_t census_got_ = 0;
  typename Transport::Timer census_timer_{};
  DriverReport report_;
};

}  // namespace geochoice::net
