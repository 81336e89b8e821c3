// cluster.hpp — an in-process localhost UDP cluster.
//
// N UdpTransports bound to ephemeral 127.0.0.1 ports, one NodeHost
// (host.hpp) each, the ClientDriver hosted on node 0, all polled from the
// calling thread until the workload (and the closing load census)
// completes. Every message between two nodes crosses the kernel's
// loopback path — real sockets, real encode/decode — which is exactly
// what the differential test needs: NetSimulator runs the same hosts,
// laid out the same way, over SimTransport, and must produce the same
// placements even though these messages genuinely left the process's
// memory. (Messages a node addresses to itself, such as the driver's op
// starts at node 0, stay in-process: see udp_transport.hpp.)
//
// The multi-process version of the same ring is the dht_node binary
// (src/service/dht_node.cpp); this harness exists so tests and
// sim::Scenario runs can stand a cluster up without forking. It returns
// the simulator's WireResult, read from the same surfaces: the client's
// DriverReport and the hosts' summed NodeStats.
#pragma once

#include <cstdint>

#include "net/host.hpp"
#include "net/node.hpp"

namespace geochoice::net {

struct ClusterConfig {
  /// Ring size; the ring is make_ring(nodes, driver.seed, driver.trial),
  /// as in every world.
  std::size_t nodes = 8;
  DriverConfig driver;
  /// Hard wall-clock bound; a wedged socket loop throws instead of
  /// hanging the caller.
  std::uint64_t timeout_ms = 30'000;
};

/// Stand up the cluster, run the driver's workload to completion, tear
/// everything down. The result's end_us is the wall-clock of the whole
/// run, census included. Throws std::system_error if sockets are
/// unavailable (sandboxes) and std::runtime_error on timeout.
[[nodiscard]] WireResult run_loopback_cluster(const ClusterConfig& cfg);

}  // namespace geochoice::net
