// quickstart — the geochoice public API in one page.
//
// Declare a sim::Scenario (10,000 servers hashed onto a circle, m = n
// items), run it through the one front door sim::run() for d = 1, 2, 3,
// and watch the power of two choices flatten the maximum load from
// ~log n to ~log log n. The same spec reaches every engine and space:
// flip --space=torus or --engine=batched and nothing else changes.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build --target examples
//   ./build/example_quickstart [--n=10000] [--space=ring] [--engine=auto]
#include <cstdio>

#include "core/theory.hpp"
#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace th = geochoice::core::theory;

namespace {

int run(const gm::ArgParser& args) {

  // 1. Declare the experiment: a consistent-hashing ring of n servers,
  //    m = n items, a handful of trials. Every knob is a field (or the
  //    equivalent shared flag — see sim::scenario_from_args).
  gm::Scenario base;
  base.space = gm::SpaceKind::kRing;
  base.num_servers = 10000;
  base.trials = 10;
  base.seed = 2024;
  base = gm::scenario_from_args(args, base);
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  // 2. Run it for d = 1, 2, 3 choices. sim::run picks the fastest
  //    capable engine (engine=auto) and returns the max-load
  //    distribution over trials.
  for (const int d : {1, 2, 3}) {
    gm::Scenario sc = base;
    sc.num_choices = d;
    const gm::RunReport report = gm::run(sc);
    std::printf(
        "d = %d:  mean max load = %5.2f   (engine: %s, p99 = %.1f)\n", d,
        report.max_load.mean(),
        std::string(gm::to_string(report.spec.engine)).c_str(),
        report.quantile_values.back());
  }

  // 3. Compare with the theory: the d >= 2 max load is
  //    log log n / log d + O(1).
  const double n = static_cast<double>(base.num_servers);
  std::printf("\ntheory: log log n / log 2 = %.2f, largest arc ~ %.1f/n\n",
              th::loglog_bound(n, 2),
              th::single_choice_geometric_scale(n));
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
