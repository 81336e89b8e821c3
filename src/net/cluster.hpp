// cluster.hpp — an in-process localhost UDP cluster.
//
// N UdpTransports bound to ephemeral 127.0.0.1 ports, one NodeLogic
// each, a ClientDriver on node 0, all pumped from the calling thread
// until the workload (and the closing load census) completes. Every
// message between two nodes crosses the kernel's loopback path — real
// sockets, real encode/decode — which is exactly what the differential
// test needs: NetSimulator runs the same NodeLogic and ClientDriver,
// laid out the same way, over SimTransport, and must produce the same
// placements even though these messages genuinely left the process's
// memory. (Messages a node addresses to itself, such as the driver's op
// starts at node 0, stay in-process: see udp_transport.hpp.)
//
// The multi-process version of the same ring is the dht_node binary
// (src/service/dht_node.cpp); this harness exists so tests and
// sim::Scenario runs can stand a cluster up without forking. A udp
// Scenario trial is one call, and its report is read from the same
// surfaces a simulated trial's is: the client's DriverReport, the nodes'
// stale reads and the transports' per-type link counters.
#pragma once

#include <cstdint>

#include "net/node.hpp"
#include "net/transport.hpp"

namespace geochoice::net {

struct ClusterConfig {
  /// Ring size; the ring derives from (driver.seed, driver.trial) exactly
  /// as NetSimulator::make_ring does.
  std::size_t nodes = 8;
  DriverConfig driver;
  /// Hard wall-clock bound; a wedged socket loop throws instead of
  /// hanging the caller.
  std::uint64_t timeout_ms = 30'000;
};

struct ClusterResult {
  DriverReport report;
  /// Protocol sends by message type, summed over all nodes' transports,
  /// the self-addressed ones that skip the socket included. Unlike the
  /// simulator's, these include the closing load census.
  LinkCounters links;
  /// Received frames that failed wire::decode (should be zero).
  std::uint64_t malformed = 0;
  /// sendmsg calls across all transports; fewer than the frames written
  /// (links.total - self_delivered) when the outboxes batched.
  std::uint64_t send_calls = 0;
  /// Sends a transport delivered to its own node without the socket.
  std::uint64_t self_delivered = 0;
  /// recvmsg calls that returned a datagram, across all transports; fewer
  /// than datagrams_in when bundles arrived whole (UDP GRO).
  std::uint64_t recv_calls = 0;
  /// Segments read from the sockets, malformed ones included.
  std::uint64_t datagrams_in = 0;
  /// Placements the owners observed landing on stale load information.
  std::uint64_t stale_reads = 0;
  /// Distinct keys holding a value across all node stores after the run
  /// (== inserts when the store phase ran, 0 otherwise).
  std::uint64_t keys_stored = 0;
  /// Wall-clock of the whole run, census included, in µs.
  std::uint64_t elapsed_us = 0;
};

/// Stand up the cluster, run the driver's workload to completion, tear
/// everything down. Throws std::system_error if sockets are unavailable
/// (sandboxes) and std::runtime_error on timeout.
[[nodiscard]] ClusterResult run_loopback_cluster(const ClusterConfig& cfg);

}  // namespace geochoice::net
