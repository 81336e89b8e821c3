// simulator.hpp — a deterministic discrete-event simulator of a Chord DHT
// running the paper's two-choice insertion *over the wire*, with the
// protocol code the real node serves.
//
// Every ring node is a NodeHost (host.hpp): its NodeLogic (node.hpp), and
// on node 0 the one ClientDriver, as in run_loopback_cluster and
// `dht_node --cluster`. Messages move through SimTransport
// (transport.hpp): one link delay from the LatencyModel to another node,
// none to itself, on one calendar-queue EventQueue; time is in simulated
// microseconds. Each delivered message goes to hosts[m.at]. An insert:
// the client probes the key's d candidate positions, node 0 routes each
// probe along Chord fingers to the candidate's successor, which replies
// with its *current* load, and the client places the key at the
// least-loaded one. With other inserts in flight that load can be stale
// (`stale_reads`). Lookups follow, then (store_gets > 0) a put per key and
// Zipf gets.
//
// Alarms. ClientDriver arms a 50 ms retransmit alarm per op, as over UDP.
// They run on simulated time (1 ms = 1,000 µs) on a TimerWheel, never in
// the event queue, so alarms that never fire change neither the event
// order, the event count nor the trace hash. A link delay past the alarm
// makes the client resend; the owners' at-most-once set keeps each key
// placed once. No op completing for kStallUs throws.
//
// A run ends when ClientDriver::workload_done() holds. The census the
// client starts then is never delivered, and its first probe is left out
// of the links; the WireResult's loads are read from each NodeLogic.
//
// Determinism. Time ties break by schedule order, a trial runs on one
// thread, and every draw comes from a (seed, trial, purpose) substream:
//   node ids    <- kServerPlacement   candidates/keys <- kBallChoices
//   link delays <- kNetLatency        tie breaks      <- kTieBreaking
// so a (seed, config) pair fixes the event trace bit-for-bit (tests pin a
// golden trace hash). With zero latency and window = 1 the run collapses
// to exactly core::run_process over ChordSuccessorSpace (chord_space.hpp).
#pragma once

#include <cstdint>
#include <vector>

#include "core/tie_breaking.hpp"
#include "dht/chord.hpp"
#include "net/host.hpp"
#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "obs/trace.hpp"

namespace geochoice::net {

struct NetConfig {
  /// Ring size n (only used by simulate; a caller-supplied ring fixes n
  /// itself).
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

/// One executed event, for full-trace comparisons in tests.
struct TraceEvent {
  SimTime time = 0.0;
  std::uint64_t seq = 0;
  Message msg;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

class NetSimulator {
 public:
  /// No op completing for this long (60 simulated s, 1,200 alarms) throws
  /// std::runtime_error: every alarm would put more messages in flight.
  static constexpr SimTime kStallUs = 60e6;

  /// `ring` must outlive the simulator and must have finger tables built.
  NetSimulator(const dht::ChordRing& ring, const NetConfig& cfg);
  NetSimulator(const NetSimulator&) = delete;  // nodes hold port addresses
  NetSimulator& operator=(const NetSimulator&) = delete;

  /// Run the workload to completion. Single-shot: a simulator instance
  /// cannot be rerun.
  WireResult run();

  /// Executed-event trace (empty unless cfg.collect_trace).
  [[nodiscard]] const std::vector<TraceEvent>& trace() const noexcept {
    return trace_;
  }

  /// Run cfg on make_ring(cfg.nodes, cfg.seed, cfg.trial).
  [[nodiscard]] static WireResult simulate(const NetConfig& cfg);

 private:
  void execute(const MessageQueue::Event& e);
  WireResult finish();

  NetConfig cfg_;
  SimNetwork net_;
  std::vector<SimTransport> ports_;  // one per node, by node id
  std::vector<NodeHost<SimTransport>> hosts_;  // by node id
  ClientDriver<SimTransport>* client_ = nullptr;  // hosts_[0]'s
  std::uint64_t completed_ = 0;  // ops answered at the last progress check
  SimTime progress_at_ = 0.0;    // when completed_ last moved
  bool ran_ = false;
  WireResult result_;
  std::vector<TraceEvent> trace_;
};

}  // namespace geochoice::net
