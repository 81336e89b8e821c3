#include "net/cluster.hpp"

#include <memory>
#include <stdexcept>
#include <vector>

#include "net/udp_transport.hpp"

namespace geochoice::net {

WireResult run_loopback_cluster(const ClusterConfig& cfg) {
  if (cfg.nodes < 1) {
    throw std::invalid_argument("run_loopback_cluster: nodes must be >= 1");
  }
  const auto ring = make_ring(cfg.nodes, cfg.driver.seed, cfg.driver.trial);

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
  std::vector<NodeHost<UdpTransport>> hosts;
  hosts.reserve(cfg.nodes);
  hosts.emplace_back(ring, 0, *transports[0], cfg.driver);
  for (std::uint32_t i = 1; i < cfg.nodes; ++i) {
    hosts.emplace_back(ring, i, *transports[i], cfg.driver.trace);
  }
  ClientDriver<UdpTransport>& client = *hosts[0].client();

  // Phase 2: poll every host from this one thread until the client has
  // its census. Node 0's poll blocks briefly so an idle cluster waits in
  // poll(2) instead of spinning.
  client.start();
  UdpTransport& clock = *transports[0];
  while (!client.done()) {
    if (clock.now_ms() > cfg.timeout_ms) {
      throw std::runtime_error(
          "run_loopback_cluster: workload did not complete within timeout");
    }
    for (std::size_t i = 0; i < cfg.nodes; ++i) hosts[i].poll(i == 0 ? 1 : 0);
  }

  WireResult result;
  result.client = client.report();
  for (const auto& h : hosts) result.nodes += h.stats();
  result.end_us = static_cast<double>(clock.now_us());
  publish(result);
  return result;
}

}  // namespace geochoice::net
