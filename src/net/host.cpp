#include "net/host.hpp"

#include "obs/registry.hpp"
#include "rng/streams.hpp"

namespace geochoice::net {

dht::ChordRing make_ring(std::size_t nodes, std::uint64_t seed,
                         std::uint64_t trial) {
  auto gen =
      rng::make_stream(seed, trial, rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(nodes, gen);
  ring.build_fingers();
  return ring;
}

void publish(const WireResult& r) {
  if (!obs::enabled()) return;
  static const obs::Counter c_events("net.events");
  static const obs::Counter c_links("net.links");
  static const obs::Counter c_inserts("net.inserts");
  static const obs::Counter c_lookups("net.lookups");
  static const obs::Counter c_probe_hops("net.probe_hops");
  static const obs::Counter c_stale("net.stale_reads");
  static const obs::Counter c_malformed("net.malformed");
  static const obs::Counter c_data_rtx("net.data_retransmits");
  static const obs::Counter c_census("net.census_retries");
  c_events.add(r.events);
  c_links.add(r.nodes.links.total);
  c_inserts.add(r.client.inserts);
  c_lookups.add(r.client.lookups);
  c_probe_hops.add(r.client.probe_hops);
  c_stale.add(r.nodes.stale_reads);
  c_malformed.add(r.nodes.malformed);
  c_data_rtx.add(r.client.data_retransmits);
  c_census.add(r.client.census_retries);
}

}  // namespace geochoice::net
