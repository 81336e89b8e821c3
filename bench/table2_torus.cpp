// table2_torus — reproduces Table 2 of the paper (experiment E2).
//
// "Experimental maximum load with random torus polygons (m = n)": n servers
// uniform on the unit torus, bins are Voronoi cells (nearest-server
// ownership), n balls, d in {1..4}, random ties. Every cell is one
// sim::Scenario through the sim::run front door.
//
// Defaults: n up to 2^12, 100 trials (single-core friendly). --full runs
// the paper's n up to 2^20 with 1000 trials.
//
// Flags: shared scenario flags (sim::scenario_from_args) plus
//        --n=... --dmax=... --csv=PATH --full
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;

namespace {

int run(const gm::ArgParser& args) {
  std::vector<std::uint64_t> sizes =
      args.get_u64_list("n", {1u << 8, 1u << 10, 1u << 12});
  gm::Scenario base;
  base.space = gm::SpaceKind::kTorus;
  base.trials = 100;
  base.seed = 0x7461626c653221ULL;
  base = gm::scenario_from_args(args, base);
  if (args.has("full")) {
    sizes = {1u << 8, 1u << 12, 1u << 16, 1u << 20};
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

  std::printf("%s",
              gm::render_table(
                  "Table 2: Experimental maximum load with random torus "
                  "polygons (m = n), " +
                      std::to_string(base.trials) + " trials",
                  headers, rows)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
