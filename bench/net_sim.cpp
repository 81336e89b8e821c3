// net_sim — scenario CLI for the discrete-event network simulator.
//
// Runs multi-trial message-level experiments: Chord lookup hop/latency
// percentiles, wire cost of two-choice insertion, staleness under wide
// insert windows, and the max keys-per-node distribution — the questions
// a deployed DHT cares about that the structural engines cannot answer.
//
// This binary is a thin shim over the unified front door: it builds a
// wire-model sim::Scenario (model=wire, space=chord) and calls sim::run.
// The same experiment is reachable from any scenario-aware binary via
// --model=wire; net_sim only keeps the historical defaults, the --keys
// alias for --m, the net-flavored report/CSV, and the sweep grid.
//
// Flags (defaults in brackets):
//   --n=1024          ring nodes
//   --keys=0          inserts (0 means keys = n; --m is an alias)
//   --d=2             candidate positions per key
//   --window=8        operations in flight (1 = serialized, no staleness)
//   --latency=uniform constant | uniform | lognormal
//   --lat-a=0.5       constant value / uniform lo / lognormal mu
//   --lat-b=1.5       uniform hi / lognormal sigma
//   --lookups=4096    measurement lookups after the inserts drain
//   --trials=20       independent rings
//   --seed=...        master seed
//   --threads=0       trial parallelism (0 = hardware); each trial is one
//                     sequential NetSimulator run
//   --transport=sim   sim | udp (udp runs every trial on a real loopback
//                     UDP cluster; the latency flags do not apply)
//   --csv=PATH        also append one metrics row per run to PATH
//
// Sweep mode (the ROADMAP stale-information study, self-contained):
//   --sweep                 run the window x latency-model grid instead of
//                           one configuration: window in 1,2,4,...,max per
//                           canonical model (constant(1), uniform(0.5,1.5),
//                           lognormal(0,1)); one CSV row per cell, so the
//                           phase-change chart needs no external driver
//   --sweep-max-window=256  largest window in the grid
//   --csv=PATH              sweep output (default net_sweep.csv)
// --n/--keys/--d/--trials/--lookups/--seed/--threads apply per cell;
// --window/--latency/--lat-a/--lat-b are the swept axes and are rejected.
#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/cli.hpp"
#include "sim/csv.hpp"
#include "sim/net_experiment.hpp"
#include "sim/scenario.hpp"

namespace gn = geochoice::net;
namespace gm = geochoice::sim;

namespace {

int run_sweep(gm::Scenario sc, std::uint64_t max_window,
              const std::string& csv_path) {
  const std::vector<gn::LatencyModel> models = {
      gn::LatencyModel::constant(1.0),
      gn::LatencyModel::uniform(0.5, 1.5),
      gn::LatencyModel::lognormal(0.0, 1.0),
  };
  gm::CsvWriter csv(csv_path, gm::net_csv_header());
  std::printf("%-10s %8s %14s %14s %14s\n", "latency", "window",
              "max_load_mean", "stale_frac", "insert_p99");
  for (const auto& model : models) {
    // 64-bit loop variable: doubling cannot wrap below any representable
    // --sweep-max-window, so the loop always terminates.
    for (std::uint64_t w = 1; w <= max_window; w *= 2) {
      sc.latency = model;
      sc.window = static_cast<std::uint32_t>(w);
      const auto report = gm::run(sc);
      const auto r = gm::net_scenario_result(report);
      csv.row(gm::net_csv_row(gm::net_scenario_config(sc), r));
      std::printf("%-10s %8u %14.3f %14.4f %14.2f\n",
                  std::string(gn::to_string(model.kind)).c_str(), sc.window,
                  r.max_load.mean(), r.stale_fraction, r.insert_latency_p99);
      std::fflush(stdout);
    }
  }
  std::printf("\nwrote %zu rows to %s\n",
              static_cast<std::size_t>(csv.rows_written()), csv_path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const gm::ArgParser args(argc, argv);
  const bool sweep = args.has("sweep");

  std::uint64_t max_window = 256;
  std::string csv_path;
  if (sweep) {
    // Windows beyond u32 are nonsense (the window field is 32-bit); clamp
    // rather than truncate so absurd inputs stay finite, not wrapped.
    max_window = std::min<std::uint64_t>(args.get_u64("sweep-max-window", 256),
                                         0xffffffffull);
    csv_path = args.get_string("csv", "net_sweep.csv");
    for (const char* axis : {"window", "latency", "lat-a", "lat-b"}) {
      if (args.has(axis)) {
        std::fprintf(stderr, "--%s is a swept axis; drop it in --sweep mode\n",
                     axis);
        return 2;
      }
    }
  } else {
    csv_path = args.get_string("csv", "");
  }

  // The historical net_sim defaults, expressed as a wire-model Scenario.
  gm::Scenario defaults;
  defaults.model = gm::ExecModel::kWire;
  defaults.space = gm::SpaceKind::kChordNet;
  defaults.num_servers = 1u << 10;
  defaults.num_balls = 0;  // keys = n
  defaults.trials = 20;
  defaults.seed = 0x6e657473696d2121ULL;  // "netsim!!"
  defaults.window = 8;
  defaults.latency = gn::LatencyModel::uniform(0.5, 1.5);
  defaults.lookups = 4096;

  gm::Scenario sc;
  try {
    sc = gm::scenario_from_args(args, defaults);
    sc.num_balls = args.get_u64("keys", sc.num_balls);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_sim: %s\n", e.what());
    return 2;
  }
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  try {
    if (sweep) return run_sweep(sc, max_window, csv_path);

    const auto report = gm::run(sc);
    const auto result = gm::net_scenario_result(report);
    std::fputs(
        gm::render_net_summary(gm::net_scenario_config(sc), result).c_str(),
        stdout);

    if (!csv_path.empty()) {
      gm::CsvWriter csv(csv_path, gm::net_csv_header());
      csv.row(gm::net_csv_row(gm::net_scenario_config(sc), result));
    }
  } catch (const std::invalid_argument& e) {
    // A spec sim::run rejects (say a non-finite latency) is a usage error.
    std::fprintf(stderr, "net_sim: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "net_sim: %s\n", e.what());
    return 1;
  }
  return 0;
}
