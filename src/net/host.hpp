// host.hpp — what every world (NetSimulator, run_loopback_cluster,
// dht_node) runs around NodeLogic and ClientDriver (node.hpp), written
// once:
//
//   * make_ring(nodes, seed, trial), the one ring recipe, so every world
//     derives the same ring from the same (seed, trial);
//   * NodeHost<Transport>, one node: its NodeLogic, plus the ClientDriver
//     on the node the client runs on (node 0 in every world), and the one
//     dispatch. The simulator hands each delivered message to
//     hosts[m.at].deliver(m); UDP pumps call host.poll(timeout);
//   * NodeStats, one node's counters (a ring's, summed with +=), and
//     WireResult, what a finished run hands back in either world, which
//     publish() adds to the obs registry under one net.* name set.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>

#include "dht/chord.hpp"
#include "net/message.hpp"
#include "net/node.hpp"
#include "net/protocol.hpp"
#include "net/transport.hpp"
#include "net/udp_transport.hpp"
#include "obs/trace.hpp"

namespace geochoice::net {

/// The ring every world derives for (seed, trial): `nodes` ids from the
/// kServerPlacement substream, with finger tables.
[[nodiscard]] dht::ChordRing make_ring(std::size_t nodes, std::uint64_t seed,
                                       std::uint64_t trial);

/// One node's counters. The simulator counts links once for its whole
/// network (SimNetwork::links), so a simulated host leaves `links` and the
/// socket counters at zero.
struct NodeStats {
  /// Protocol sends by type, self-addressed ones included.
  LinkCounters links;
  /// NodeLogic's load, stale reads and stored keys.
  std::uint64_t load = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t keys_stored = 0;
  /// UdpTransport's counters (udp_transport.hpp).
  std::uint64_t malformed = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t self_delivered = 0;
  std::uint64_t recv_calls = 0;
  std::uint64_t datagrams_in = 0;

  NodeStats& operator+=(const NodeStats& o) noexcept {
    links += o.links;
    load += o.load;
    stale_reads += o.stale_reads;
    keys_stored += o.keys_stored;
    malformed += o.malformed;
    send_calls += o.send_calls;
    self_delivered += o.self_delivered;
    recv_calls += o.recv_calls;
    datagrams_in += o.datagrams_in;
    return *this;
  }
};

/// What a finished run hands back, in either world.
struct WireResult {
  /// The client's report. Over UDP its census read `loads` and
  /// `max_load`; the simulator stops as the census starts and reads them
  /// off its nodes instead.
  DriverReport client;
  /// Every node's counters, summed. The simulator's links leave out the
  /// census probe it never delivers; the cluster's include the census.
  NodeStats nodes;
  /// When the run stopped, in µs of its clock: the last delivered event
  /// in the simulator (simulated µs), the census's end over UDP (wall µs).
  double end_us = 0.0;
  /// Simulator only: delivered messages, and the FNV-1a fold of every one
  /// (time, message fields) that the golden-trace tests pin.
  std::uint64_t events = 0;
  std::uint64_t trace_hash = 0xcbf29ce484222325ULL;
};

/// Add a finished run's counters to the obs registry in one bulk pass,
/// never per event (the obs_overhead gate), under the net.* names both
/// worlds share.
void publish(const WireResult& r);

template <typename Transport>
class NodeHost {
 public:
  /// Node `self` of `ring`, which must outlive the host; `trace` as
  /// NodeLogic's.
  NodeHost(const dht::ChordRing& ring, std::uint32_t self,
           Transport& transport, obs::TraceRecorder* trace = nullptr)
      : node_(ring, self, transport, trace), transport_(&transport) {}

  /// The node and the client, which sends from it; the node records into
  /// the client's recorder.
  NodeHost(const dht::ChordRing& ring, std::uint32_t self,
           Transport& transport, const DriverConfig& client)
      : NodeHost(ring, self, transport, client.trace) {
    client_ = std::make_unique<ClientDriver<Transport>>(ring, client,
                                                        transport);
  }

  /// Hand one delivered message to its half: a request to the node, a
  /// reply to the client. Replies only ever come back to the client's
  /// node, so a host without one drops them.
  void deliver(const Message& m) {
    if (protocol::is_request(m.type)) {
      node_.on_message(m);
    } else if (client_) {
      client_->on_reply(m);
    }
  }

  /// Hand a fired alarm to the client, the only half that arms any.
  void alarm(const Message& t) {
    if (client_) client_->on_timer(t);
  }

  /// One UdpTransport::poll round through deliver() and alarm().
  void poll(int timeout_ms) {
    transport_->poll(
        timeout_ms, [this](const Message& m) { deliver(m); },
        [this](const Message& t) { alarm(t); });
  }

  [[nodiscard]] const NodeLogic<Transport>& node() const noexcept {
    return node_;
  }
  /// The hosted client, or null.
  [[nodiscard]] ClientDriver<Transport>* client() noexcept {
    return client_.get();
  }

  [[nodiscard]] NodeStats stats() const {
    NodeStats s;
    s.load = node_.load();
    s.stale_reads = node_.stale_reads();
    s.keys_stored = node_.keys_stored();
    if constexpr (std::is_same_v<Transport, UdpTransport>) {
      s.links = transport_->links();
      s.malformed = transport_->malformed();
      s.send_calls = transport_->send_calls();
      s.self_delivered = transport_->self_delivered();
      s.recv_calls = transport_->recv_calls();
      s.datagrams_in = transport_->datagrams_in();
    }
    return s;
  }

 private:
  NodeLogic<Transport> node_;
  Transport* transport_;
  std::unique_ptr<ClientDriver<Transport>> client_;
};

}  // namespace geochoice::net
