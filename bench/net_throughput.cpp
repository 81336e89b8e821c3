// net_throughput — event-rate of the discrete-event network simulator.
//
// The DES engine is a different beast from the allocation engines: its
// unit of work is an executed event (one delivered message), and the
// interesting regression is the event loop sliding from O(log) heap work
// into something accidentally linear. This bench times the message-level
// two-choice insertion (constant latency, windowed) and reports
//
//   * events_per_sec       — raw simulator event rate (also a results row,
//                            so the per-event ns shows next to per-insert),
//   * inserts_per_sec      — end-to-end wire-insert throughput,
//   * net_vs_structural    — wire inserts/sec over TwoChoiceDht::insert
//                            (the structural engine doing the same probes
//                            without messages); machine-independent, so
//                            it is the metric bench/baseline.json floors,
//   * obs_overhead         — wire inserts/sec with the obs registry on over
//                            off, median of adjacent off/on pairs; also
//                            floored.
//
// The JSON records hw_threads (like sharded_throughput) so perf-gate skips
// and cross-runner comparisons stay auditable.
//
// Usage: net_throughput [--out FILE] [--n N] [--m M] [--quick]
//   --out FILE   JSON output path (default BENCH_net.json)
//   --n N        ring nodes (default 16384 = 2^14)
//   --m M        keys inserted (default 65536 = 2^16)
//   --quick      small deterministic sizes + fewer reps for the CI smoke
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.hpp"
#include "dht/dht.hpp"
#include "net/net.hpp"
#include "obs/obs.hpp"
#include "rng/rng.hpp"
#include "sim/cli.hpp"

namespace gb = geochoice::bench;
namespace gd = geochoice::dht;
namespace gn = geochoice::net;
namespace go = geochoice::obs;
namespace gr = geochoice::rng;

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_net.json");
  std::uint64_t n = args.get_u64("n", 1ull << 14);
  std::uint64_t m = args.get_u64("m", 1ull << 16);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick) {
    n = 1ull << 10;
    m = 1ull << 13;
  }
  const int warmup = 1;
  const int reps = quick ? 5 : 7;

  gn::NetConfig cfg;
  cfg.nodes = static_cast<std::size_t>(n);
  cfg.keys = m;
  cfg.choices = 2;
  cfg.window = 16;
  cfg.latency = gn::LatencyModel::constant(1.0);
  const auto ring = gn::make_ring(cfg.nodes, cfg.seed, cfg.trial);

  std::vector<gb::Measurement> ms;

  // --- message-level two-choice over the DES.
  std::uint64_t events = 0;
  ms.push_back(gb::measure("NetTwoChoice/wire", 0, m, warmup, reps, [&] {
    gn::NetSimulator sim(ring, cfg);
    const auto r = sim.run();
    events = r.events;
    if (r.client.max_load == 0) std::abort();
  }));
  const double inserts_per_sec = ms.back().items_per_sec;
  const double events_per_sec =
      inserts_per_sec * static_cast<double>(events) / static_cast<double>(m);
  // Same wall time re-expressed per executed event: the DES-loop row.
  gb::Measurement ev_row;
  ev_row.name = "NetTwoChoice/events";
  ev_row.items_per_sec = events_per_sec;
  ev_row.ns_per_item = 1e9 / events_per_sec;
  ms.push_back(ev_row);

  // --- obs overhead: the identical run with the registry live (runtime
  // toggle on, counters recording, no trace recorder — the "--obs with
  // nobody watching" configuration). The zero-cost-when-off design claim,
  // floored in bench/baseline.json. Host drift swamps the ~1% effect a
  // single A/B comparison sees, so the ratio is the median over
  // kObsPairs adjacent off/on pairs: each pair compares neighbouring runs
  // (drift cancels), the side that runs first alternates from pair to
  // pair (so a drift in one direction does not favour one side), and the
  // median rejects outlier pairs.
  const auto wire_once = [&] {
    gn::NetSimulator sim(ring, cfg);
    if (sim.run().client.max_load == 0) std::abort();
  };
  constexpr int kObsPairs = 15;
  constexpr int kObsReps = 3;  // per side of a pair, median taken
  std::vector<double> obs_ratios;
  gb::Measurement obs_row;
  for (int pair = 0; pair < kObsPairs; ++pair) {
    gb::Measurement off;
    const bool on_first = pair % 2 == 1;
    for (const bool on : {on_first, !on_first}) {
      go::set_enabled(on);
      (on ? obs_row : off) =
          gb::measure(on ? "NetTwoChoice/wire+obs" : "NetTwoChoice/wire", 0,
                      m, 0, kObsReps, wire_once);
    }
    go::set_enabled(false);
    obs_ratios.push_back(obs_row.items_per_sec / off.items_per_sec);
  }
  std::sort(obs_ratios.begin(), obs_ratios.end());
  const double obs_overhead =
      go::compiled_in() ? obs_ratios[obs_ratios.size() / 2] : 1.0;
  ms.push_back(obs_row);

  // --- structural baseline: same probes, no messages.
  ms.push_back(gb::measure("TwoChoiceDht/structural", 0, m, warmup, reps, [&] {
    gr::DefaultEngine gen(42);
    gd::TwoChoiceDht dht(ring, cfg.choices);
    for (std::uint64_t k = 0; k < m; ++k) (void)dht.insert(gen);
    if (dht.max_load() == 0) std::abort();
  }));
  const double structural_per_sec = ms.back().items_per_sec;
  const double net_vs_structural = inserts_per_sec / structural_per_sec;

  std::printf("%-28s %15s %12s\n", "benchmark", "items/sec", "ns/item");
  for (const auto& r : ms) {
    std::printf("%-28s %15.0f %12.2f\n", r.name.c_str(), r.items_per_sec,
                r.ns_per_item);
  }
  std::printf("\nhw threads: %u\n", std::thread::hardware_concurrency());
  std::printf("events/sec (DES loop)      : %.0f\n", events_per_sec);
  std::printf("net / structural inserts   : %.3fx\n", net_vs_structural);
  std::printf("obs enabled / obs off      : %.3fx (median of %d pairs, "
              "range %.3f-%.3f)\n",
              obs_overhead, kObsPairs, obs_ratios.front(), obs_ratios.back());

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"net_throughput\",\n";
  char cfg_buf[256];
  std::snprintf(cfg_buf, sizeof(cfg_buf),
                "  \"config\": {\"n\": %llu, \"m\": %llu, \"d\": %d, "
                "\"window\": %u, \"latency\": \"%s\", \"quick\": %s},\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(m), cfg.choices, cfg.window,
                std::string(gn::to_string(cfg.latency.kind)).c_str(),
                quick ? "true" : "false");
  json += cfg_buf;
  char hwbuf[64];
  std::snprintf(hwbuf, sizeof(hwbuf), "  \"hw_threads\": %zu,\n",
                static_cast<std::size_t>(std::thread::hardware_concurrency()));
  json += hwbuf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "insert", /*with_threads=*/false,
                    i + 1 == ms.size());
  }
  json += "  ],\n";
  char tail[512];
  std::snprintf(tail, sizeof(tail),
                "  \"events_per_sec\": %.1f,\n"
                "  \"inserts_per_sec\": %.1f,\n"
                "  \"net_vs_structural\": %.4f,\n"
                "  \"obs_overhead\": %.4f\n}\n",
                events_per_sec, inserts_per_sec, net_vs_structural,
                obs_overhead);
  json += tail;

  return gb::write_json_or_fail(out_path, json);
}
