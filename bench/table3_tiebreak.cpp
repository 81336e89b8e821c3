// table3_tiebreak — reproduces Table 3 of the paper (experiment E3).
//
// "Experimental maximum load varying strategies for random arcs with d = 2
// (m = n)": columns arc-larger / arc-random / arc-left / arc-smaller.
// The paper's finding: arc-smaller is best (slightly better even than
// Vöcking's scheme — see bench/vocking for that comparison). Each column
// cell is one sim::Scenario with a different tie-break, all through the
// sim::run front door.
//
// Flags: shared scenario flags (sim::scenario_from_args) plus
//        --n=... --csv=PATH --full
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

namespace {

int run(const gm::ArgParser& args) {
  std::vector<std::uint64_t> sizes =
      args.get_u64_list("n", {1u << 8, 1u << 12, 1u << 16});
  gm::Scenario base;
  base.space = gm::SpaceKind::kRing;
  base.num_choices = 2;
  base.trials = 200;
  base.seed = 0x7461626c653321ULL;
  base = gm::scenario_from_args(args, base);
  if (args.has("full")) {
    sizes = {1u << 8, 1u << 12, 1u << 16, 1u << 20, 1u << 24};
    base.trials = 1000;
  }
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

  // Paper column order.
  const std::vector<std::pair<std::string, gc::TieBreak>> strategies = {
      {"arc-larger", gc::TieBreak::kLargerRegion},
      {"arc-random", gc::TieBreak::kRandom},
      {"arc-left", gc::TieBreak::kFirstChoice},
      {"arc-smaller", gc::TieBreak::kSmallerRegion},
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
                  "Table 3: Experimental maximum load varying strategies "
                  "for random arcs with d = 2 (m = n), " +
                      std::to_string(base.trials) + " trials",
                  headers, rows)
                  .c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
