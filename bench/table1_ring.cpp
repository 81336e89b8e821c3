// table1_ring — reproduces Table 1 of the paper (experiment E1).
//
// "Experimental maximum load with random arcs (m = n)": n servers hashed to
// a unit circle, n balls, d in {1,2,3,4} independent uniform choices,
// random tie-breaking, distribution of the maximum load over trials.
// Every cell is one sim::Scenario through the sim::run front door, so the
// engine (--engine=auto by default) and every shared flag behave exactly
// as in the other scenario binaries.
//
// Defaults are sized for a quick single-core run (n up to 2^16, 200
// trials); pass --full for the paper's n up to 2^24 with 1000 trials
// (CPU-hours), or set --n=..., --trials=... directly.
//
// Flags (shared scenario flags — see sim::scenario_from_args — plus):
//   --n=256,4096,65536   comma-separated server counts
//   --dmax=4             largest d
//   --csv=PATH           also write machine-readable rows
//   --full               paper-scale sizes and 1000 trials
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;

namespace {

int run(const gm::ArgParser& args) {
  std::vector<std::uint64_t> sizes =
      args.get_u64_list("n", {1u << 8, 1u << 12, 1u << 16});
  gm::Scenario base;
  base.space = gm::SpaceKind::kRing;
  base.tie = geochoice::core::TieBreak::kRandom;
  base.trials = 200;
  base.seed = 0x7461626c653121ULL;
  base = gm::scenario_from_args(args, base);
  if (args.has("full")) {
    sizes = {1u << 8, 1u << 12, 1u << 16, 1u << 20, 1u << 24};
    base.trials = 1000;
  }
  const int dmax = static_cast<int>(args.get_u64("dmax", 4));
  const std::string csv_path = args.get_string("csv", "");
  if (args.has("d")) {
    std::fprintf(stderr, "--d is a swept axis (1..dmax); drop it\n");
    return 2;
  }

  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  std::unique_ptr<gm::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<gm::CsvWriter>(
        csv_path,
        std::vector<std::string>{"n", "d", "max_load", "fraction"});
  }

  std::vector<gm::TableRowBlock> rows;
  std::vector<std::string> headers;
  for (int d = 1; d <= dmax; ++d) headers.push_back("d = " + std::to_string(d));

  for (std::uint64_t n : sizes) {
    gm::TableRowBlock row;
    row.label = gm::pow2_label(n);
    for (int d = 1; d <= dmax; ++d) {
      gm::Scenario cell = base;
      cell.num_servers = n;
      cell.num_choices = d;
      auto hist = gm::run(cell).max_load;
      if (csv) {
        for (const auto& [value, count] : hist.items()) {
          csv->row({std::to_string(n), std::to_string(d),
                    std::to_string(value),
                    std::to_string(static_cast<double>(count) /
                                   static_cast<double>(hist.total()))});
        }
      }
      row.cells.push_back({std::move(hist)});
    }
    std::fprintf(stderr, "done n=%s\n", row.label.c_str());
    rows.push_back(std::move(row));
  }

  std::printf("%s", gm::render_table(
                        "Table 1: Experimental maximum load with random "
                        "arcs (m = n), " +
                            std::to_string(base.trials) + " trials",
                        headers, rows)
                        .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
