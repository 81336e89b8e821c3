// sharded_throughput — single-trial throughput of the three engines.
//
// The batched engine (BENCH_batch.json) caps a single allocation at one
// core; this bench measures what the sharded engine buys on top: ring
// sharded-vs-batched balls/sec across a thread sweep, and the torus batch
// path (3x3 padded-row scan) against the scalar oracle. Writes
// machine-readable BENCH_sharded.json for the perf-gate / trajectory
// tracking.
//
// Usage: sharded_throughput [--out FILE] [--n N] [--m M] [--quick]
//   --out FILE   JSON output path (default BENCH_sharded.json)
//   --n N        servers (default 65536 = 2^16, the ISSUE gate)
//   --m M        balls   (default 16777216 = 2^24, the ISSUE gate)
//   --quick      small deterministic sizes + fewer reps for the CI smoke
//
// The thread sweep covers {1, 2, 4} plus hardware_concurrency when larger;
// "hw_threads" in the JSON says how many cores actually backed the run —
// on a 1-core box the multi-thread rows measure oversubscription, not
// speedup, so downstream gates should read them together with hw_threads.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
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
using gb::measure;

}  // namespace

int main(int argc, char** argv) {
  const geochoice::sim::ArgParser args(argc, argv);
  const std::string out_path = args.get_string("out", "BENCH_sharded.json");
  std::uint64_t n = args.get_u64("n", 1ull << 16);
  std::uint64_t m = args.get_u64("m", 1ull << 24);
  const bool quick = args.has("quick");
  for (const auto& flag : args.unused()) {
    std::fprintf(stderr, "unknown flag: --%s\n", flag.c_str());
    return 2;
  }
  if (quick) {
    n = 1ull << 13;
    m = 1ull << 17;
  }
  const int warmup = 1;
  const int reps = quick ? 5 : 3;

  const std::size_t hw = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
  std::vector<std::size_t> sweep{1, 2, 4};
  if (hw > 4) sweep.push_back(hw);

  gc::ProcessOptions opt;
  opt.num_balls = m;
  opt.num_choices = 2;
  opt.tie = gc::TieBreak::kRandom;  // matches batch_throughput

  gr::DefaultEngine setup(6);
  const auto ring = gs::RingSpace::random(static_cast<std::size_t>(n), setup);
  // Torus lookups are an order of magnitude costlier; 1/16 of the
  // sites/balls keeps the torus leg proportionate (same convention as
  // batch_throughput).
  const std::uint64_t torus_n = std::max<std::uint64_t>(1, n / 16);
  const std::uint64_t torus_m = std::max<std::uint64_t>(1, m / 16);
  const auto torus =
      gs::TorusSpace::random(static_cast<std::size_t>(torus_n), setup);
  gc::ProcessOptions torus_opt = opt;
  torus_opt.num_balls = torus_m;

  gr::DefaultEngine gen(42);
  gc::BatchScratch<double> ring_bscratch;
  gc::BatchScratch<geochoice::geometry::Vec2> torus_bscratch;
  gc::ShardedScratch<double> ring_sscratch;
  gc::ShardedScratch<geochoice::geometry::Vec2> torus_sscratch;

  std::vector<Measurement> ms;

  // --- ring: batched baseline, then the sharded engine across threads.
  ms.push_back(measure("RingBatch/batched", 0, m, warmup, reps, [&] {
    const auto r = gc::run_batch_process(ring, opt, gen, {}, &ring_bscratch);
    if (r.max_load == 0) std::abort();
  }));
  const double ring_batched = ms.back().items_per_sec;
  double ring_sharded_best = 0.0;
  for (const std::size_t t : sweep) {
    gc::ShardedOptions so;
    so.threads = t;
    char name[64];
    std::snprintf(name, sizeof(name), "RingSharded/t%zu", t);
    ms.push_back(measure(name, t, m, warmup, reps, [&] {
      const auto r =
          gc::run_sharded_process(ring, opt, gen, so, nullptr, &ring_sscratch);
      if (r.max_load == 0) std::abort();
    }));
    ring_sharded_best = std::max(ring_sharded_best, ms.back().items_per_sec);
  }

  // --- torus: scalar oracle vs batched (3x3 padded-row scan) vs sharded.
  ms.push_back(measure("TorusScalar/scalar", 0, torus_m, warmup, reps, [&] {
    const auto r = gc::run_process(torus, torus_opt, gen);
    if (r.max_load == 0) std::abort();
  }));
  const double torus_scalar = ms.back().items_per_sec;
  ms.push_back(measure("TorusBatch/batched", 0, torus_m, warmup, reps, [&] {
    const auto r =
        gc::run_batch_process(torus, torus_opt, gen, {}, &torus_bscratch);
    if (r.max_load == 0) std::abort();
  }));
  const double torus_batched = ms.back().items_per_sec;
  double torus_sharded_best = 0.0;
  for (const std::size_t t : sweep) {
    gc::ShardedOptions so;
    so.threads = t;
    char name[64];
    std::snprintf(name, sizeof(name), "TorusSharded/t%zu", t);
    ms.push_back(measure(name, t, torus_m, warmup, reps, [&] {
      const auto r = gc::run_sharded_process(torus, torus_opt, gen, so,
                                             nullptr, &torus_sscratch);
      if (r.max_load == 0) std::abort();
    }));
    torus_sharded_best = std::max(torus_sharded_best, ms.back().items_per_sec);
  }

  const double ring_sharded_speedup = ring_sharded_best / ring_batched;
  const double torus_batched_speedup = torus_batched / torus_scalar;
  const double torus_sharded_speedup = torus_sharded_best / torus_batched;

  std::printf("%-28s %8s %15s %12s\n", "benchmark", "threads", "items/sec",
              "ns/ball");
  for (const auto& r : ms) {
    std::printf("%-28s %8zu %15.0f %12.2f\n", r.name.c_str(), r.threads,
                r.items_per_sec, r.ns_per_item);
  }
  std::printf("\nhw threads: %zu\n", hw);
  std::printf("ring  sharded best / batched : %.2fx\n", ring_sharded_speedup);
  std::printf("torus batched      / scalar  : %.2fx\n", torus_batched_speedup);
  std::printf("torus sharded best / batched : %.2fx\n", torus_sharded_speedup);

  std::string json;
  json += "{\n";
  json += "  \"bench\": \"sharded_throughput\",\n";
  char cfg[256];
  std::snprintf(cfg, sizeof(cfg),
                "  \"config\": {\"n\": %llu, \"m\": %llu, \"d\": 2, "
                "\"tie\": \"random\", \"quick\": %s},\n",
                static_cast<unsigned long long>(n),
                static_cast<unsigned long long>(m), quick ? "true" : "false");
  json += cfg;
  char hwbuf[64];
  std::snprintf(hwbuf, sizeof(hwbuf), "  \"hw_threads\": %zu,\n", hw);
  json += hwbuf;
  json += "  \"results\": [\n";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    gb::append_json(json, ms[i], "ball", /*with_threads=*/true,
                    i + 1 == ms.size());
  }
  json += "  ],\n";
  char tail[256];
  std::snprintf(tail, sizeof(tail),
                "  \"ring_sharded_speedup\": %.3f,\n"
                "  \"torus_batched_speedup\": %.3f,\n"
                "  \"torus_sharded_speedup\": %.3f\n}\n",
                ring_sharded_speedup, torus_batched_speedup,
                torus_sharded_speedup);
  json += tail;

  return gb::write_json_or_fail(out_path, json);
}
