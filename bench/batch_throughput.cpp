// batch_throughput — scalar vs batched allocation-engine throughput.
//
// Times the scalar oracle (run_process, the loop BM_ProcessPerBallRing
// measures) against the batched engine (run_batch_process) on the same
// machine in the same run, and writes a machine-readable BENCH_batch.json
// so successive PRs can track the perf trajectory.
//
// Usage: batch_throughput [--out FILE] [--n N] [--check MIN_SPEEDUP]
//                         [--quick]
//   --out FILE       JSON output path (default BENCH_batch.json)
//   --n N            servers = balls (default 65536 = 2^16, the ISSUE gate)
//   --check X        exit nonzero unless ring speedup >= X
//   --quick          small deterministic sizes + fewer reps (CI smoke: same
//                    fixed seeds, ~seconds instead of minutes)
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/core.hpp"
#include "rng/rng.hpp"
#include "sim/cli.hpp"
#include "spaces/spaces.hpp"

namespace gb = geochoice::bench;
namespace gc = geochoice::core;
namespace gr = geochoice::rng;
namespace gs = geochoice::spaces;

namespace {

using gb::Measurement;

/// Median-of-reps wall time for one full process run of `m` balls.
template <typename Fn>
Measurement measure(const std::string& name, std::uint64_t m, int kWarmup,
                    int kReps, Fn&& run) {
  return gb::measure(name, /*threads=*/0, m, kWarmup, kReps,
                     std::forward<Fn>(run));
}

}  // namespace

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_batch.json");
  std::uint64_t n = args.get_u64("n", 1ull << 16);
  const double check = args.get_double("check", 0.0);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick) n = 1ull << 13;
  const int warmup = quick ? 1 : 2;
  const int reps = quick ? 5 : 11;

  gc::ProcessOptions opt;
  opt.num_balls = n;
  opt.num_choices = 2;  // matches BM_ProcessPerBallRing
  const gc::BatchOptions batch;

  // Same setup as BM_ProcessPerBallRing: random ring of n servers, m = n
  // balls, d = 2, default (random) tie-break.
  gr::DefaultEngine setup(6);
  const auto ring = gs::RingSpace::random(static_cast<std::size_t>(n), setup);
  const gs::UniformSpace uniform(static_cast<std::size_t>(n));
  // Torus lookups are ~20x costlier; 1/16 of the sites/balls keeps the
  // torus leg proportionate. Clamp so tiny --n values stay valid.
  const std::uint64_t torus_n = std::max<std::uint64_t>(1, n / 16);
  const auto torus =
      gs::TorusSpace::random(static_cast<std::size_t>(torus_n), setup);
  gc::ProcessOptions torus_opt = opt;
  torus_opt.num_balls = torus_n;

  gr::DefaultEngine gen(42);
  gc::BatchScratch<double> ring_scratch;
  gc::BatchScratch<gs::BinIndex> uniform_scratch;
  gc::BatchScratch<geochoice::geometry::Vec2> torus_scratch;

  std::vector<Measurement> ms;
  ms.push_back(measure("BM_ProcessPerBallRing/scalar", n, warmup, reps, [&] {
    const auto r = gc::run_process(ring, opt, gen);
    if (r.max_load == 0) std::abort();
  }));
  ms.push_back(measure("BM_BatchProcessRing/batched", n, warmup, reps, [&] {
    const auto r = gc::run_batch_process(ring, opt, gen, batch, nullptr,
                                         &ring_scratch);
    if (r.max_load == 0) std::abort();
  }));
  ms.push_back(measure("BM_ProcessPerBallUniform/scalar", n, warmup, reps, [&] {
    const auto r = gc::run_process(uniform, opt, gen);
    if (r.max_load == 0) std::abort();
  }));
  ms.push_back(measure("BM_BatchProcessUniform/batched", n, warmup, reps, [&] {
    const auto r =
        gc::run_batch_process(uniform, opt, gen, batch, nullptr,
                              &uniform_scratch);
    if (r.max_load == 0) std::abort();
  }));
  ms.push_back(measure("BM_ProcessPerBallTorus/scalar", torus_opt.num_balls,
                       warmup, reps, [&] {
                         const auto r = gc::run_process(torus, torus_opt, gen);
                         if (r.max_load == 0) std::abort();
                       }));
  ms.push_back(measure("BM_BatchProcessTorus/batched", torus_opt.num_balls,
                       warmup, reps, [&] {
                         const auto r = gc::run_batch_process(
                             torus, torus_opt, gen, batch, nullptr,
                             &torus_scratch);
                         if (r.max_load == 0) std::abort();
                       }));

  const double ring_speedup = ms[1].items_per_sec / ms[0].items_per_sec;
  const double uniform_speedup = ms[3].items_per_sec / ms[2].items_per_sec;
  const double torus_speedup = ms[5].items_per_sec / ms[4].items_per_sec;

  std::printf("%-34s %15s %12s\n", "benchmark", "items/sec", "ns/ball");
  for (const auto& m : ms) {
    std::printf("%-34s %15.0f %12.2f\n", m.name.c_str(), m.items_per_sec,
                m.ns_per_item);
  }
  std::printf("\nring    speedup (batched/scalar): %.2fx\n", ring_speedup);
  std::printf("uniform speedup (batched/scalar): %.2fx\n", uniform_speedup);
  std::printf("torus   speedup (batched/scalar): %.2fx\n", torus_speedup);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"batch_throughput\",\n";
  char cfg[256];
  std::snprintf(cfg, sizeof(cfg),
                "  \"config\": {\"n\": %llu, \"m\": %llu, \"d\": 2, "
                "\"tie\": \"random\", \"block_size\": %zu, \"quick\": %s},\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(n), batch.block_balls(false),
                quick ? "true" : "false");
  json += cfg;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "ball", /*with_threads=*/false,
                    i + 1 == ms.size());
  }
  json += "  ],\n";
  char tail[192];
  std::snprintf(tail, sizeof(tail),
                "  \"ring_speedup\": %.3f,\n  \"uniform_speedup\": %.3f,\n"
                "  \"torus_speedup\": %.3f\n}\n",
                ring_speedup, uniform_speedup, torus_speedup);
  json += tail;

  if (const int rc = gb::write_json_or_fail(out_path, json); rc != 0) {
    return rc;
  }

  if (check > 0.0 && ring_speedup < check) {
    std::fprintf(stderr, "FAIL: ring speedup %.2fx < required %.2fx\n",
                 ring_speedup, check);
    return 1;
  }
  return 0;
}
