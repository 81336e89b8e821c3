// chord_dht — the paper's motivating application (Section 1.1): load
// balancing a Chord-style distributed hash table.
//
// Plain consistent hashing leaves some server owning a Θ(log n / n) arc —
// and therefore Θ(log n) of the keys. Chord's classic fix multiplies every
// server into Θ(log n) virtual servers. The paper's alternative: give each
// *key* two candidate positions and store it at the less-loaded successor.
// This example runs all three on one ring and prints the trade-off,
// including routing cost measured over the actual finger tables.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "dht/dht.hpp"
#include "net/net.hpp"
#include "stats/summary.hpp"

namespace gd = geochoice::dht;
namespace gr = geochoice::rng;

namespace {

void report(const char* name, const std::vector<std::uint32_t>& loads,
            double hops, double route_entries) {
  geochoice::stats::RunningStats rs;
  for (auto l : loads) rs.add(static_cast<double>(l));
  std::printf("%-22s max keys/server: %3.0f   stddev: %5.2f   "
              "hops/query: %5.2f   routing entries: %5.0f\n",
              name, rs.max(), rs.stddev(), hops, route_entries);
}

}  // namespace

int main() {
  constexpr std::size_t kServers = 2048;
  constexpr std::size_t kKeys = 2048;
  gr::DefaultEngine gen(99);

  // One shared physical ring, fingers built for routing.
  auto ring = gd::ChordRing::random(kServers, gen);
  ring.build_fingers();

  // --- 1. plain consistent hashing --------------------------------------
  {
    gd::TwoChoiceDht dht(ring, /*d=*/1);
    std::uint64_t hops = 0;
    for (std::size_t k = 0; k < kKeys; ++k) hops += dht.insert(gen).hops;
    report("consistent hashing", dht.loads(),
           static_cast<double>(hops) / kKeys,
           static_cast<double>(ring.fingers_per_node()));
  }

  // --- 2. virtual servers (Chord's fix) ----------------------------------
  {
    const auto v = static_cast<std::size_t>(
        std::ceil(std::log2(static_cast<double>(kServers))));
    const gd::VirtualServerRing vsr(kServers, v, gen);
    gd::ChordRing vring = vsr.ring();
    vring.build_fingers();
    std::vector<std::uint32_t> loads(kServers, 0);
    std::uint64_t hops = 0;
    for (std::size_t k = 0; k < kKeys; ++k) {
      const double key = gr::uniform01(gen);
      ++loads[vsr.physical_owner(key)];
      hops += vring
                  .lookup(static_cast<std::uint32_t>(
                              gr::uniform_below(gen, vring.node_count())),
                          key)
                  .hops;
    }
    report("virtual servers", loads, static_cast<double>(hops) / kKeys,
           static_cast<double>(vring.fingers_per_node()) *
               static_cast<double>(v));
  }

  // --- 3. two choices per key (the paper's proposal) ----------------------
  {
    gd::TwoChoiceDht dht(ring, /*d=*/2);
    std::uint64_t hops = 0;
    for (std::size_t k = 0; k < kKeys; ++k) hops += dht.insert(gen).hops;
    report("two choices (d = 2)", dht.loads(),
           static_cast<double>(hops) / kKeys,
           static_cast<double>(ring.fingers_per_node()));
    std::printf(
        "   two-choice lookups probe %.2f candidate positions on "
        "average (bounded by d = 2)\n",
        dht.mean_lookup_probes());
  }

  // --- 4. the same protocol over the wire ---------------------------------
  // The structural run above answers "where do keys land"; the
  // discrete-event simulator (net/) answers what it costs on a network:
  // probes routed hop-by-hop over the fingers, load replies that can go
  // stale while other inserts are in flight, and latency percentiles.
  {
    geochoice::net::NetConfig cfg;
    cfg.nodes = kServers;
    cfg.keys = kKeys;
    cfg.choices = 2;
    cfg.window = 16;  // 16 inserts in flight: stale load reads appear
    cfg.latency = geochoice::net::LatencyModel::lognormal(0.0, 0.5);
    cfg.lookups = 4096;
    const auto m = geochoice::net::NetSimulator::simulate(cfg);
    const auto& c = m.client;
    std::printf(
        "\nover the wire (lognormal link latency, window 16):\n"
        "   max keys/server: %u   lookup hops p50/p99: %.0f/%.0f   "
        "lookup latency p99: %.1f\n"
        "   wire cost: %.1f probe hops/insert; stale load reads: %.1f%% "
        "of placements\n",
        c.max_load, c.lookup_hops_q.value(0), c.lookup_hops_q.value(2),
        c.lookup_latency_us_q.value(2),
        static_cast<double>(c.probe_hops) / static_cast<double>(c.inserts),
        100.0 * static_cast<double>(m.nodes.stale_reads) /
            static_cast<double>(c.inserts));
  }

  std::printf(
      "\nTakeaway: two choices match the virtual-server balance while "
      "keeping O(log n) routing entries per server instead of "
      "O(log^2 n) — and the wire-level run shows the price: d probe "
      "routes per insert and a load signal that ages while in flight.\n");
  return 0;
}
