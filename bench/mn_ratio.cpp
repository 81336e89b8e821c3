// mn_ratio — the m != n heavy-load regime (experiment E7, Section 2
// remark 3).
//
// The paper: for m balls into n bins the maximum load is
// O(m/n) + O(log log n / log d) w.h.p. This bench sweeps m/n and prints
// mean max load and the overhead (max load - m/n), which should stay
// nearly flat in m/n for d >= 2 and grow for d = 1. Every cell is one
// sim::Scenario through sim::run — with --engine=auto the large-ratio
// cells land on the batched engine automatically.
//
// Flags: shared scenario flags (sim::scenario_from_args) plus
//        --n=4096 --ratios=1,2,4,8,16,32 --csv=PATH
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;

namespace {

int run(const gm::ArgParser& args) {
  const auto ratios = args.get_u64_list("ratios", {1, 2, 4, 8, 16, 32});
  gm::Scenario base;
  base.space = gm::SpaceKind::kRing;
  base.num_servers = 1u << 12;
  base.trials = 100;
  base.seed = 0x6d6e726174696fULL;
  base = gm::scenario_from_args(args, base);
  const std::string csv_path = args.get_string("csv", "");
  for (const char* axis : {"m", "d"}) {
    if (args.has(axis)) {
      std::fprintf(stderr,
                   "--%s is a swept axis (m = ratio * n via --ratios, "
                   "d = 1..3); drop it\n",
                   axis);
      return 2;
    }
  }
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  const std::uint64_t n = base.num_servers;

  std::unique_ptr<gm::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<gm::CsvWriter>(
        csv_path, std::vector<std::string>{"ratio", "d", "mean_max_load",
                                           "overhead"});
  }

  std::printf(
      "Heavy load on the ring: n = %llu servers, m = ratio * n balls, "
      "%llu trials\n",
      static_cast<unsigned long long>(n),
      static_cast<unsigned long long>(base.trials));
  std::printf("%8s | %18s | %18s | %18s\n", "m/n", "d=1 (max, over)",
              "d=2 (max, over)", "d=3 (max, over)");

  for (std::uint64_t ratio : ratios) {
    std::printf("%8llu |", static_cast<unsigned long long>(ratio));
    for (int d = 1; d <= 3; ++d) {
      gm::Scenario cell = base;
      cell.num_balls = ratio * n;
      cell.num_choices = d;
      const double mean = gm::run(cell).max_load.mean();
      const double overhead = mean - static_cast<double>(ratio);
      std::printf("   %8.2f %7.2f |", mean, overhead);
      if (csv) {
        csv->row({std::to_string(ratio), std::to_string(d),
                  std::to_string(mean), std::to_string(overhead)});
      }
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check (paper: max load = O(m/n) + O(log log n / log d)): "
      "the d=1 ratio max/(m/n) keeps growing, while for d>=2 it falls "
      "toward a constant — the choices absorb the arc-length skew.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
