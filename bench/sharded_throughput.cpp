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
//   --quick      small deterministic sizes for the CI smoke
//
// The gated numbers are ratios between engines, so the engines of one
// space are timed in interleaved rounds (batched, sharded t1, t2, ...,
// then again) and each row keeps its fastest round. A host slowdown only
// ever adds time, and every engine passes through the same stretch of the
// run, so the ratios hold steady where back-to-back median-of-reps blocks
// (one engine's reps, then the next's) drifted apart with the host.
//
// The thread sweep covers {1, 2, 4} plus hardware_concurrency when larger;
// "hw_threads" in the JSON says how many cores actually backed the run —
// on a 1-core box the multi-thread rows measure oversubscription, not
// speedup, so downstream gates should read them together with hw_threads.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
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

/// One engine configuration of an interleaved measurement.
struct Leg {
  std::string name;
  std::size_t threads = 0;  // 0 = single-threaded engine
  std::uint64_t items = 0;
  std::function<void()> run;
};

/// Runs every leg once per round, in order, for one untimed warm-up round
/// and then `rounds` timed ones; each leg reports its fastest round.
std::vector<Measurement> measure_interleaved(const std::vector<Leg>& legs,
                                             int rounds) {
  for (const Leg& leg : legs) leg.run();
  std::vector<double> best(legs.size(), 0.0);
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < legs.size(); ++i) {
      const auto t0 = gb::Clock::now();
      legs[i].run();
      const double secs =
          std::chrono::duration<double>(gb::Clock::now() - t0).count();
      best[i] = r == 0 ? secs : std::min(best[i], secs);
    }
  }
  std::vector<Measurement> out(legs.size());
  for (std::size_t i = 0; i < legs.size(); ++i) {
    out[i].name = legs[i].name;
    out[i].threads = legs[i].threads;
    out[i].items_per_sec = static_cast<double>(legs[i].items) / best[i];
    out[i].ns_per_item = best[i] * 1e9 / static_cast<double>(legs[i].items);
  }
  return out;
}

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
  const int rounds = 9;

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

  // --- ring: batched baseline, then the sharded engine across threads.
  std::vector<Leg> ring_legs;
  ring_legs.push_back({"RingBatch/batched", 0, m, [&] {
                         const auto r = gc::run_batch_process(
                             ring, opt, gen, {}, &ring_bscratch);
                         if (r.max_load == 0) std::abort();
                       }});
  for (const std::size_t t : sweep) {
    gc::ShardedOptions so;
    so.threads = t;
    ring_legs.push_back({"RingSharded/t" + std::to_string(t), t, m, [&, so] {
                           const auto r = gc::run_sharded_process(
                               ring, opt, gen, so, nullptr, &ring_sscratch);
                           if (r.max_load == 0) std::abort();
                         }});
  }
  const std::vector<Measurement> ring_ms =
      measure_interleaved(ring_legs, rounds);

  // --- torus: scalar oracle vs batched (3x3 padded-row scan) vs sharded.
  std::vector<Leg> torus_legs;
  torus_legs.push_back({"TorusScalar/scalar", 0, torus_m, [&] {
                          const auto r = gc::run_process(torus, torus_opt, gen);
                          if (r.max_load == 0) std::abort();
                        }});
  torus_legs.push_back({"TorusBatch/batched", 0, torus_m, [&] {
                          const auto r = gc::run_batch_process(
                              torus, torus_opt, gen, {}, &torus_bscratch);
                          if (r.max_load == 0) std::abort();
                        }});
  for (const std::size_t t : sweep) {
    gc::ShardedOptions so;
    so.threads = t;
    torus_legs.push_back(
        {"TorusSharded/t" + std::to_string(t), t, torus_m, [&, so] {
           const auto r = gc::run_sharded_process(torus, torus_opt, gen, so,
                                                  nullptr, &torus_sscratch);
           if (r.max_load == 0) std::abort();
         }});
  }
  const std::vector<Measurement> torus_ms =
      measure_interleaved(torus_legs, rounds);

  const double ring_batched = ring_ms[0].items_per_sec;
  const double torus_scalar = torus_ms[0].items_per_sec;
  const double torus_batched = torus_ms[1].items_per_sec;
  double ring_sharded_best = 0.0;
  double torus_sharded_best = 0.0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    ring_sharded_best =
        std::max(ring_sharded_best, ring_ms[1 + i].items_per_sec);
    torus_sharded_best =
        std::max(torus_sharded_best, torus_ms[2 + i].items_per_sec);
  }
  std::vector<Measurement> ms = ring_ms;
  ms.insert(ms.end(), torus_ms.begin(), torus_ms.end());

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
