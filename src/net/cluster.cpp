#include "net/cluster.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/protocol.hpp"
#include "net/udp_transport.hpp"
#include "rng/streams.hpp"

namespace geochoice::net {

ClusterResult run_loopback_cluster(const ClusterConfig& cfg) {
  if (cfg.nodes < 1) {
    throw std::invalid_argument("run_loopback_cluster: nodes must be >= 1");
  }
  // The same ring every world derives: NetSimulator::make_ring's recipe.
  auto gen = rng::make_stream(cfg.driver.seed, cfg.driver.trial,
                              rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(cfg.nodes, gen);
  ring.build_fingers();

  // Phase 1: bind everyone on ephemeral ports, then exchange the table.
  std::vector<std::unique_ptr<UdpTransport>> transports;
  transports.reserve(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    transports.push_back(
        std::make_unique<UdpTransport>(static_cast<std::uint32_t>(i), 0));
  }
  std::vector<Endpoint> peers;
  peers.reserve(cfg.nodes);
  for (const auto& t : transports) {
    peers.push_back(Endpoint{0x7f000001u, t->port()});
  }
  for (auto& t : transports) t->set_peers(peers);

  // Every node shares the driver's recorder: the pump is single-threaded,
  // so one ring buffer can hold the whole cluster's lifecycle stream.
  std::vector<NodeLogic<UdpTransport>> nodes;
  nodes.reserve(cfg.nodes);
  for (std::size_t i = 0; i < cfg.nodes; ++i) {
    nodes.emplace_back(ring, static_cast<std::uint32_t>(i), *transports[i],
                       cfg.driver.trace);
  }
  ClientDriver<UdpTransport> driver(ring, cfg.driver, *transports[0]);

  // Phase 2: pump every transport from this one thread until the driver
  // has its census. Node 0's poll blocks briefly so an idle cluster
  // waits in poll(2) instead of spinning.
  driver.start();
  UdpTransport& clock = *transports[0];
  while (!driver.done()) {
    if (clock.now_ms() > cfg.timeout_ms) {
      throw std::runtime_error(
          "run_loopback_cluster: workload did not complete within timeout");
    }
    for (std::size_t i = 0; i < cfg.nodes; ++i) {
      auto on_message = [&, i](const Message& m) {
        if (protocol::is_request(m.type)) {
          nodes[i].on_message(m);
        } else if (i == 0) {
          driver.on_reply(m);
        }
      };
      auto on_timer = [&, i](const Message& t) {
        if (i == 0) driver.on_timer(t);
      };
      transports[i]->poll(i == 0 ? 1 : 0, on_message, on_timer);
    }
  }

  ClusterResult result;
  result.report = driver.report();
  for (const auto& t : transports) {
    result.links.total += t->links().total;
    for (std::size_t k = 0; k < result.links.by_type.size(); ++k) {
      result.links.by_type[k] += t->links().by_type[k];
    }
    result.malformed += t->malformed();
    result.send_calls += t->send_calls();
    result.self_delivered += t->self_delivered();
    result.recv_calls += t->recv_calls();
    result.datagrams_in += t->datagrams_in();
  }
  for (const auto& n : nodes) {
    result.stale_reads += n.stale_reads();
    result.keys_stored += n.keys_stored();
  }
  result.elapsed_us = clock.now_us();
  return result;
}

}  // namespace geochoice::net
