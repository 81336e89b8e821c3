// web_balancer — the dynamic API on a running service.
//
// A fleet of edge servers is hashed onto a consistent-hashing ring (think
// request affinity by key range). The one-shot side runs through the
// sim::Scenario front door: place the keyspace once, count max load,
// hash-ring shards vs idealized uniform shards.
//
// The serving side runs the same fleet through the open-loop harness of
// sim/serving.hpp: every key's value sits in its owner's KV store
// (store::HashStore), reads arrive as a bursty Poisson stream over a Zipf
// keyspace, and service time grows with the backlog. Placement quality
// stops being an abstract max-load number and becomes what the fleet
// budgets for — p99 request latency. One-choice placement lets the
// big-arc servers saturate during bursts; two choices flatten the tail;
// a stale load window (choices made on old information) gives most of
// the two-choice win back, which is the paper's d-choice-with-stale-loads
// story served live.
//
// Flags: --n/--seed/--trials/--engine like every scenario binary, plus
// --lambda for the target burst-peak utilization of the serving section.
#include <cstdio>

#include "sim/serving.hpp"
#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace gn = geochoice::net;

namespace {

int run(const gm::ArgParser& args) {
  gm::Scenario base;
  base.space = gm::SpaceKind::kRing;
  base.num_servers = 1000;
  base.num_choices = 2;
  base.trials = 20;
  base.seed = 4242;
  base = gm::scenario_from_args(args, base);
  const double lambda = args.get_double("lambda", 0.85);
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  const std::size_t servers = base.num_servers;

  // --- One-shot placement (Theorem 1), via the front door: the same
  // fleet under hash-ring shards vs idealized uniform shards. Two
  // choices close most of the gap.
  const auto ring_report = gm::run(base);
  gm::Scenario uniform = base;
  uniform.space = gm::SpaceKind::kUniform;
  const auto uniform_report = gm::run(uniform);

  std::printf(
      "Edge fleet: %zu servers, one-shot placement of %llu items with 2 "
      "routes (%llu trials via sim::run, engine %s)\n\n",
      servers, static_cast<unsigned long long>(base.balls()),
      static_cast<unsigned long long>(base.trials),
      std::string(gm::to_string(ring_report.spec.engine)).c_str());
  std::printf("%-26s %14s %14s\n", "", "ideal shards", "hash-ring shards");
  std::printf("%-26s %14.2f %14.2f\n", "mean max load",
              uniform_report.max_load.mean(), ring_report.max_load.mean());

  // --- Serving (sim/serving.hpp): keys live in per-server stores, reads
  // arrive open-loop. The arrival rate is sized so the burst peak runs
  // the *average* server at ~lambda; a server whose ring arc carries a
  // few times the average key count runs past 1.0 and queues.
  gm::ServingConfig scfg;
  scfg.nodes = servers;
  scfg.keys = 8 * servers;  // a real keyspace, several keys per shard
  scfg.requests = 1u << 15;
  scfg.seed = base.seed;
  scfg.zipf_alpha = 0.5;
  scfg.service_base_us = 1.0;
  scfg.arrival_rate = 0.25 * lambda * static_cast<double>(servers);

  struct Policy {
    const char* name;
    int choices;
    std::uint32_t window;
    gn::LatencyModel latency;
  };
  const Policy policies[] = {
      {"one-choice", 1, 1, gn::LatencyModel::zero()},
      {"two-choice", 2, 1, gn::LatencyModel::zero()},
      {"two-choice, stale loads", 2, 32, gn::LatencyModel::constant(1.0)},
  };

  std::printf(
      "\nServing: %llu open-loop reads, Zipf(%.1f) keys, bursty arrivals "
      "peaking at ~%.0f%% mean utilization, service stretches with "
      "backlog\n\n",
      static_cast<unsigned long long>(scfg.requests), scfg.zipf_alpha,
      lambda * 100.0);
  std::printf("%-26s %10s %10s %10s %10s\n", "placement policy", "p50_us",
              "p99_us", "p999_us", "peak_queue");
  for (const Policy& p : policies) {
    gm::ServingConfig cfg = scfg;
    cfg.choices = p.choices;
    cfg.window = p.window;
    cfg.latency = p.latency;
    const auto r = gm::run_serving(cfg);
    std::printf("%-26s %10.2f %10.2f %10.2f %10u\n", p.name,
                r.latency_us_q.value(0), r.latency_us_q.value(1),
                r.latency_us_q.value(2), r.peak_queue);
  }

  std::printf(
      "\nReading: in one-shot placement two choices nearly erase the "
      "hash-ring skew, and the serving table shows why that matters at "
      "request time — the one-choice row's p99 is the long-arc servers "
      "melting during bursts, the two-choice row keeps draining. The "
      "stale-loads row places with a 32-key-old view of the loads and "
      "still lands near fresh two-choice: choice quality degrades "
      "gracefully with information age. For the dynamic *routing* "
      "counterpoint (join-shorter-queue on skewed arcs, where two routes "
      "do NOT rescue the bulk), see bench/supermarket and EXPERIMENTS.md "
      "E15; for more of the one-shot setting, examples/chord_dht.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
