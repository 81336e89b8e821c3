// scenario — the generic front door: run any sim::Scenario from flags.
//
// One binary for every engine × space × tie-break combination the
// harness supports, plus a CI smoke mode that walks the whole dispatch
// matrix so a gap fails the build instead of a user.
//
// Single-run mode (the default):
//   scenario --space=torus --engine=batched --n=4096 --d=2 --trials=50
// prints the resolved spec, timing, percentiles, and the max-load
// distribution; --csv=PATH / --json=PATH mirror the report to files.
// All flags are the shared scenario set (sim::scenario_from_args). An
// unknown flag or a combination sim::run rejects (say --model=wire on the
// default ring space) prints the reason and exits 2.
//
// Matrix mode:
//   scenario --matrix [--quick]
// runs every (engine × space) cell at small sizes, checks that every
// supported combination produces a full histogram, that unsupported
// combinations are rejected with std::invalid_argument, and that the
// batched/sharded engines reproduce the scalar histogram bit-for-bit
// under a deterministic tie-break. Exits nonzero on any deviation —
// this is the CI gate for the dispatch table. --quick shrinks sizes to
// CI-smoke scale (it is the mode CI runs in both compilers).
//
// Obs-overhead bench mode:
//   scenario --bench-obs [--out FILE] [--quick]
// times the structural front door with the obs registry off vs on-but-
// idle (--obs semantics, nobody reading) and writes the ratio as
// `obs_overhead` to FILE (default BENCH_scenario.json); the perf gate
// floors it at 0.97 in bench/baseline.json.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "obs/registry.hpp"
#include "sim/sim.hpp"

namespace gb = geochoice::bench;
namespace gm = geochoice::sim;
namespace gc = geochoice::core;

namespace {

constexpr gm::SpaceKind kAllSpaces[] = {
    gm::SpaceKind::kRing,     gm::SpaceKind::kTorus,
    gm::SpaceKind::kUniform,  gm::SpaceKind::kTorusNd,
    gm::SpaceKind::kWeighted, gm::SpaceKind::kChordNet,
};
constexpr gm::Engine kConcreteEngines[] = {
    gm::Engine::kScalar, gm::Engine::kBatched, gm::Engine::kSharded};

int run_matrix(bool quick) {
  gm::Scenario base;
  base.num_servers = quick ? 48 : 256;
  base.num_balls = base.num_servers * 2;
  base.num_choices = 2;
  base.trials = quick ? 3 : 10;
  base.seed = 0x6d617472697821ULL;  // "matrix!"
  base.measure_samples = 1024;
  int failures = 0;

  std::printf("%-10s", "space");
  for (const auto engine : kConcreteEngines) {
    std::printf(" %12s", std::string(gm::to_string(engine)).c_str());
  }
  std::printf("   (mean max load; '-' = unsupported)\n");

  for (const auto space : kAllSpaces) {
    std::printf("%-10s", std::string(gm::to_string(space)).c_str());
    // The deterministic tie-break makes supported engines bit-comparable
    // cell-to-cell, so the matrix checks semantics, not just liveness.
    gm::Scenario cell = base;
    cell.space = space;
    cell.tie = gc::TieBreak::kLowestIndex;
    geochoice::stats::IntHistogram reference;
    for (const auto engine : kConcreteEngines) {
      cell.engine = engine;
      if (!gm::engine_supports(engine, space)) {
        bool rejected = false;
        try {
          (void)gm::run(cell);
        } catch (const std::invalid_argument&) {
          rejected = true;
        }
        if (!rejected) {
          std::printf("\nFAIL: %s × %s should be rejected but ran\n",
                      std::string(gm::to_string(engine)).c_str(),
                      std::string(gm::to_string(space)).c_str());
          ++failures;
        }
        std::printf(" %12s", "-");
        continue;
      }
      try {
        const auto report = gm::run(cell);
        if (report.max_load.total() != cell.trials) {
          std::printf("\nFAIL: %s × %s: %llu of %llu trials reported\n",
                      std::string(gm::to_string(engine)).c_str(),
                      std::string(gm::to_string(space)).c_str(),
                      static_cast<unsigned long long>(
                          report.max_load.total()),
                      static_cast<unsigned long long>(cell.trials));
          ++failures;
        }
        if (engine == gm::Engine::kScalar) {
          reference = report.max_load;
        } else if (!(report.max_load == reference)) {
          std::printf("\nFAIL: %s × %s: histogram differs from scalar "
                      "under a deterministic tie-break\n",
                      std::string(gm::to_string(engine)).c_str(),
                      std::string(gm::to_string(space)).c_str());
          ++failures;
        }
        std::printf(" %12.2f", report.max_load.mean());
      } catch (const std::exception& e) {
        std::printf("\nFAIL: %s × %s threw: %s\n",
                    std::string(gm::to_string(engine)).c_str(),
                    std::string(gm::to_string(space)).c_str(), e.what());
        ++failures;
        std::printf(" %12s", "!");
      }
    }
    std::printf("\n");
  }

  if (failures > 0) {
    std::fprintf(stderr, "\nFAIL: %d dispatch-matrix cell(s) broken\n",
                 failures);
    return 1;
  }
  std::printf("\nOK: every engine × space cell behaves (%d spaces × %d "
              "engines)\n",
              static_cast<int>(std::size(kAllSpaces)),
              static_cast<int>(std::size(kConcreteEngines)));
  return 0;
}

int run_bench_obs(const std::string& out_path, bool quick) {
  gm::Scenario sc;
  sc.space = gm::SpaceKind::kRing;
  sc.engine = gm::Engine::kScalar;
  sc.num_servers = quick ? 1u << 9 : 1u << 12;
  sc.num_balls = quick ? 1u << 14 : 1u << 17;
  sc.trials = quick ? 4 : 8;
  sc.threads = 1;  // serial trials: the ratio measures the hot loop, not
                   // pool scheduling noise
  sc.seed = 0x6f62736f76686421ULL;
  const std::uint64_t items = sc.balls() * sc.trials;
  const int warmup = 1;
  const int reps = quick ? 5 : 7;

  // Machine drift on shared runners swamps the ~1% effect a single A/B
  // comparison sees, so the ratio is the median of three interleaved
  // off/on pairs: each pair compares adjacent runs (drift cancels) and
  // the median rejects an outlier pair.
  const auto run_once = [&] {
    if (gm::run(sc).max_load.total() == 0) std::abort();
  };
  double ratios[3];
  gb::Measurement off, on;
  for (std::size_t p = 0; p < std::size(ratios); ++p) {
    sc.obs = false;
    off = gb::measure("Scenario/structural", 0, items, p == 0 ? warmup : 0,
                      reps, run_once);
    sc.obs = true;
    on = gb::measure("Scenario/structural+obs", 0, items, 0, reps, run_once);
    ratios[p] = on.items_per_sec / off.items_per_sec;
  }
  std::sort(std::begin(ratios), std::end(ratios));
  const double obs_overhead =
      geochoice::obs::compiled_in() ? ratios[1] : 1.0;

  std::printf("%-28s %15s %12s\n", "benchmark", "balls/sec", "ns/ball");
  for (const auto& r : {off, on}) {
    std::printf("%-28s %15.0f %12.2f\n", r.name.c_str(), r.items_per_sec,
                r.ns_per_item);
  }
  std::printf("\nobs enabled / obs off : %.3fx\n", obs_overhead);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"scenario_obs\",\n";
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "  \"config\": {\"space\": \"ring\", \"n\": %llu, "
                "\"m\": %llu, \"trials\": %llu, \"quick\": %s},\n",
                static_cast<unsigned long long>(sc.num_servers),
                static_cast<unsigned long long>(sc.balls()),
                static_cast<unsigned long long>(sc.trials),
                quick ? "true" : "false");
  json += buf;
  json += "  \"results\": [\n";
  gb::append_json(json, off, "ball", /*with_threads=*/false, false);
  gb::append_json(json, on, "ball", /*with_threads=*/false, true);
  json += "  ],\n";
  std::snprintf(buf, sizeof(buf), "  \"obs_overhead\": %.4f\n}\n",
                obs_overhead);
  json += buf;
  return gb::write_json_or_fail(out_path, json);
}

}  // namespace

int main(int argc, char** argv) {
  const gm::ArgParser args(argc, argv);
  const bool matrix = args.has("matrix");
  const bool quick = args.has("quick");
  if (args.has("bench-obs")) {
    const std::string out = args.get_string("out", "BENCH_scenario.json");
    for (const auto& flag : args.unused()) {
      std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
      return 2;
    }
    return run_bench_obs(out, quick);
  }
  gm::Scenario sc;
  std::string csv_path, json_path;
  if (!matrix) {
    sc = gm::scenario_from_args(args);
    csv_path = args.get_string("csv", "");
    json_path = args.get_string("json", "");
  }
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }

  if (matrix) return run_matrix(quick);

  gm::RunReport report;
  try {
    report = gm::run(sc);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "scenario: %s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    // A spec that validates but cannot run (say link delays so long that
    // no operation ever completes) fails the run, not the process.
    std::fprintf(stderr, "scenario: %s\n", e.what());
    return 1;
  }
  std::fputs(gm::render_run_summary(report).c_str(), stdout);

  if (!csv_path.empty()) {
    gm::CsvWriter csv(csv_path, gm::scenario_csv_header(report.spec));
    csv.row(gm::scenario_csv_row(report));
    std::printf("\nwrote %s\n", csv_path.c_str());
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "FAIL: cannot open %s for writing\n",
                   json_path.c_str());
      return 1;
    }
    out << gm::scenario_json(report);
    out.close();
    if (out.fail()) {
      std::fprintf(stderr, "FAIL: error writing %s\n", json_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
