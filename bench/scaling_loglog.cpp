// scaling_loglog — the headline claim of Theorem 1 (experiment E6).
//
// Sweeps n over powers of two and prints the mean maximum load for
// d = 1..4 on the ring, the torus, and the uniform baseline, next to the
// analytic scales (log n for geometric d=1, log n/log log n for uniform
// d=1, log log n / log d + O(1) for d >= 2). The shape to verify: the
// d = 1 column grows like log n while every d >= 2 column creeps at
// log log n pace, and the geometric spaces track the uniform baseline
// within an additive constant. Every cell is one sim::Scenario through
// sim::run, so --spaces accepts any space the front door knows
// (ring, torus, torus-nd, uniform, weighted, chord).
//
// Flags: shared scenario flags (sim::scenario_from_args) plus
//        --nmin-exp=8 --nmax-exp=16 (--nmax-exp=20 for the paper scale)
//        --spaces=ring,uniform[,torus,...] --torus-max-exp=13 --csv=PATH
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/theory.hpp"
#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace th = geochoice::core::theory;

namespace {

int run(const gm::ArgParser& args) {
  const std::uint64_t nmin_exp = args.get_u64("nmin-exp", 8);
  const std::uint64_t nmax_exp = args.get_u64("nmax-exp", 16);
  const std::uint64_t torus_max_exp = args.get_u64("torus-max-exp", 13);
  gm::Scenario base;
  base.trials = 100;
  base.seed = 0x7363616c696e67ULL;
  base = gm::scenario_from_args(args, base);
  const std::string spaces_arg =
      args.get_string("spaces", "ring,uniform,torus");
  const std::string csv_path = args.get_string("csv", "");
  for (const char* axis : {"n", "d", "space"}) {
    if (args.has(axis)) {
      std::fprintf(stderr,
                   "--%s is a swept axis (use --nmin-exp/--nmax-exp and "
                   "--spaces); drop it\n",
                   axis);
      return 2;
    }
  }
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  std::vector<gm::SpaceKind> spaces;
  {
    std::size_t start = 0;
    while (start <= spaces_arg.size()) {
      std::size_t comma = spaces_arg.find(',', start);
      if (comma == std::string::npos) comma = spaces_arg.size();
      const std::string tok = spaces_arg.substr(start, comma - start);
      if (!tok.empty()) spaces.push_back(gm::space_kind_from_string(tok));
      start = comma + 1;
    }
  }

  std::unique_ptr<gm::CsvWriter> csv;
  if (!csv_path.empty()) {
    csv = std::make_unique<gm::CsvWriter>(
        csv_path, std::vector<std::string>{"space", "n", "d",
                                           "mean_max_load", "p99_proxy"});
  }

  for (gm::SpaceKind space : spaces) {
    std::printf(
        "\nmean max load, space = %s, %llu trials (m = n, random ties)\n",
        std::string(gm::to_string(space)).c_str(),
        static_cast<unsigned long long>(base.trials));
    std::printf("%8s %8s %8s %8s %8s | %10s %12s\n", "n", "d=1", "d=2",
                "d=3", "d=4", "loglog/lg2", "1-choice");
    // The 2-D (and n-d) torus spaces pay an O(n) nearest-site structure
    // per trial; cap their sweep separately so the 1-D/uniform columns
    // can still reach paper sizes.
    const bool torus_like = space == gm::SpaceKind::kTorus ||
                            space == gm::SpaceKind::kTorusNd;
    const std::uint64_t cap = torus_like ? torus_max_exp : nmax_exp;
    for (std::uint64_t e = nmin_exp; e <= cap; e += 2) {
      const std::uint64_t n = 1ull << e;
      std::printf("%8s", gm::pow2_label(n).c_str());
      for (int d = 1; d <= 4; ++d) {
        gm::Scenario cell = base;
        cell.space = space;
        cell.num_servers = n;
        cell.num_choices = d;
        const auto hist = gm::run(cell).max_load;
        std::printf(" %8.2f", hist.mean());
        if (csv) {
          csv->row({std::string(gm::to_string(space)), std::to_string(n),
                    std::to_string(d), std::to_string(hist.mean()),
                    std::to_string(hist.quantile(0.99))});
        }
      }
      const double dn = static_cast<double>(n);
      const double one_choice = space == gm::SpaceKind::kUniform
                                    ? th::single_choice_scale(dn)
                                    : th::single_choice_geometric_scale(dn);
      std::printf(" | %10.2f %12.2f\n", th::loglog_bound(dn, 2), one_choice);
    }
  }
  std::printf(
      "\nShape check: d=1 grows ~linearly in the rightmost column's scale; "
      "d>=2 columns move by <1 per 4x n (log log pace).\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) { return gm::cli_main(argc, argv, run); }
