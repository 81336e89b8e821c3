// vocking — Vöcking's asymmetric scheme vs tie-breaking variants
// (experiment E8, Section 2 remark 4 + Section 4).
//
// Compares, on the ring with d choices:
//   * independent probes + random ties      (the Theorem 1 setting),
//   * Vöcking: partitioned probes + go-left (log log n / (d log phi_d)),
//   * independent probes + arc-smaller ties (the paper's empirical winner).
//
// The paper's observation: arc-smaller slightly beats even Vöcking's
// scheme; whether that is asymptotically real is posed as an open problem.
//
// Flags: --n=256,4096,65536 --d=2 --trials=300 --seed=... --threads=...
//        --csv=PATH
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

int main(int argc, char** argv) {
  const gm::ArgParser args(argc, argv);
  const auto sizes = args.get_u64_list("n", {1u << 8, 1u << 12, 1u << 16});
  const int d = static_cast<int>(args.get_u64("d", 2));
  const std::uint64_t trials = args.get_u64("trials", 300);
  const std::uint64_t seed = args.get_u64("seed", 0x766f636b696e67ULL);
  const std::size_t threads = args.get_u64("threads", 0);
  const std::string csv_path = args.get_string("csv", "");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  struct Variant {
    std::string name;
    gc::TieBreak tie;
    gc::ChoiceScheme scheme;
  };
  const std::vector<Variant> variants = {
      {"random-ties", gc::TieBreak::kRandom, gc::ChoiceScheme::kIndependent},
      {"vocking", gc::TieBreak::kFirstChoice, gc::ChoiceScheme::kPartitioned},
      {"arc-smaller", gc::TieBreak::kSmallerRegion,
       gc::ChoiceScheme::kIndependent},
  };

  std::unique_ptr<gm::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<gm::CsvWriter>(
        csv_path, std::vector<std::string>{"n", "variant", "max_load",
                                           "fraction"});
  }

  std::vector<std::string> headers;
  for (const auto& v : variants) headers.push_back(v.name);

  std::vector<gm::TableRowBlock> rows;
  for (std::uint64_t n : sizes) {
    gm::TableRowBlock row;
    row.label = gm::pow2_label(n);
    for (const auto& v : variants) {
      gm::Scenario sc;
      sc.space = gm::SpaceKind::kRing;
      sc.engine = gm::Engine::kScalar;
      sc.num_servers = n;
      sc.num_choices = d;
      sc.tie = v.tie;
      sc.scheme = v.scheme;
      sc.trials = trials;
      sc.seed = seed;
      sc.threads = threads;
      auto hist = gm::run(sc).max_load;
      if (csv) {
        for (const auto& [value, count] : hist.items()) {
          csv->row({std::to_string(n), v.name, std::to_string(value),
                    std::to_string(static_cast<double>(count) /
                                   static_cast<double>(hist.total()))});
        }
      }
      row.cells.push_back({std::move(hist)});
    }
    rows.push_back(std::move(row));
  }

  std::printf("%s", gm::render_table(
                        "Vöcking scheme vs tie-breaking on the ring, d = " +
                            std::to_string(d) + ", " +
                            std::to_string(trials) + " trials (m = n)",
                        headers, rows)
                        .c_str());
  std::printf(
      "Shape check: vocking <= random-ties; arc-smaller <= vocking "
      "(slightly), matching the paper's Section 4.\n");
  return 0;
}
