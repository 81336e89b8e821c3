// place.cpp — the `place` workload: the paper's two geometries through
// the front door, sim::run.
//
// A round is two structural calls back to back, ring then torus: n = 2^16
// bins, d = 2, tie = first, the default engine (it resolves to batched at
// these sizes), trials spread over every hardware thread. Both are
// loaded beyond one ball per bin (16 and 4) and sized to take comparable
// wall time. RNG sampling, owner search and the place pass do the work;
// the bins fit in one core's L2, so the threads do not fight over the
// shared L3. Ring trials stay below 2^22 balls, where the default engine
// would switch to the sharded engine (3.3-8.7 s on identical runs: too
// noisy to gate).
//
// Rounds are short (about 0.7 s with their set-up on 4 vCPUs) so a 10 s
// run has a dozen of them, and every median below is over 10 rounds or
// more: with 3-s rounds a run had 4, and the set-up and trial-time
// figures of ten seeds spread up to 24%.
//
// The structural engines have no reads and no messages. Their
// end-to-end latency is the wall time of one trial (building a space and
// placing its balls): the insert_* gates time ring trials and the get_*
// gates time torus trials, so a gain on one geometry cannot hide a loss
// on the other. p50 is the median over rounds of a call's mean trial, p90
// the median over rounds of its slowest trial (a round has too few calls
// for a percentile over rounds to be steady).
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "rng/streams.hpp"
#include "sim/scenario.hpp"
#include "spaces/ring_space.hpp"
#include "spaces/torus_space.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace geochoice;

constexpr std::uint64_t kBins = 1 << 16;
constexpr std::uint64_t kRingBalls = 1 << 20;
// At least two trials per thread on 4 vCPUs: with one torus trial per
// thread every call waited for its slowest vCPU, and the figures of ten
// seeds spread 16-30%.
constexpr std::uint64_t kRingTrials = 8;
constexpr std::uint64_t kTorusBalls = 1 << 18;
constexpr std::uint64_t kTorusTrials = 8;
constexpr int kChoices = 2;
// Every median of the untraced run is over at least this many rounds.
constexpr std::uint64_t kMinRounds = 10;
constexpr std::uint64_t kMinTracedRounds = 3;
constexpr int kSetupRepeats = 16;  // set-ups timed per round
constexpr int kRepeats = 9;
constexpr std::size_t kBlock = 1024;  // balls per block, as the batched engine
constexpr std::size_t kBlocks = 64;   // blocks per isolated timing pass

constexpr std::uint64_t kRingSeeds = 1, kTorusSeeds = 2;

sim::Scenario spec(sim::SpaceKind space, std::uint64_t seed) {
  sim::Scenario sc;
  sc.space = space;
  sc.num_servers = kBins;
  const bool ring = space == sim::SpaceKind::kRing;
  sc.num_balls = ring ? kRingBalls : kTorusBalls;
  sc.trials = ring ? kRingTrials : kTorusTrials;
  sc.num_choices = kChoices;
  sc.tie = core::TieBreak::kFirstChoice;
  sc.seed = seed;
  sc.threads = 0;
  sc.engine = sim::Engine::kAuto;
  return sc;
}

struct Timed {
  double wall_s = 0.0;
  sim::RunReport report;
};

Timed timed_run(const sim::Scenario& sc, SpanRecorder* spans, const char* name,
                std::uint64_t round) {
  const std::uint64_t t0 = now_ns();
  Timed t;
  if (spans != nullptr) {
    Scope s(*spans, Layer::kCall, name, 0, ReqKind::kNone, round);
    t.report = sim::run(sc);
  } else {
    t.report = sim::run(sc);
  }
  t.wall_s = seconds_between(t0, now_ns());
  return t;
}

struct Round {
  Timed ring, torus;
  [[nodiscard]] double balls_per_s() const {
    return static_cast<double>(kRingTrials * kRingBalls + kTorusTrials * kTorusBalls) /
           (ring.wall_s + torus.wall_s);
  }
};

struct SetupSample {
  double ring_s = 0.0, torus_s = 0.0;
};

/// Round r's set-up, building its trial-0 ring and torus spaces, timed
/// kSetupRepeats times, each on the next CPU in turn (see PinnedCpu).
/// Appends the samples to `out`; returns the seconds it took.
double time_setup(const Options& opt, std::uint64_t r,
                  std::vector<SetupSample>& out) {
  const std::uint64_t start = now_ns();
  for (int i = 0; i < kSetupRepeats; ++i) {
    PinnedCpu pin(r * kSetupRepeats + static_cast<std::uint64_t>(i));
    auto ring_gen = rng::make_stream(derive_seed(opt.seed, kRingSeeds, r), 0,
                                     rng::StreamPurpose::kServerPlacement);
    auto torus_gen = rng::make_stream(derive_seed(opt.seed, kTorusSeeds, r), 0,
                                      rng::StreamPurpose::kServerPlacement);
    const std::uint64_t t0 = now_ns();
    const auto ring = spaces::RingSpace::random(kBins, ring_gen);
    const std::uint64_t t1 = now_ns();
    const auto torus = spaces::TorusSpace::random(kBins, torus_gen);
    const std::uint64_t t2 = now_ns();
    if (ring.bin_count() + torus.bin_count() != 2 * kBins) {
      throw std::runtime_error("place: space built with the wrong bin count");
    }
    out.push_back({seconds_between(t0, t1), seconds_between(t1, t2)});
  }
  return seconds_between(start, now_ns());
}

/// Rounds until `budget_s` (set-ups included) is used, at least
/// `min_rounds`. Set-ups are timed only when `setup` is given.
std::vector<Round> run_rounds(const Options& opt, double budget_s,
                              std::uint64_t min_rounds, SpanRecorder* spans,
                              std::vector<SetupSample>* setup) {
  std::vector<Round> rounds;
  double used = 0.0;
  for (std::uint64_t r = 0; r < min_rounds || used < budget_s; ++r) {
    if (setup != nullptr) used += time_setup(opt, r, *setup);
    Round round;
    round.ring = timed_run(spec(sim::SpaceKind::kRing, derive_seed(opt.seed, kRingSeeds, r)),
                           spans, "sim::run ring", r);
    round.torus = timed_run(spec(sim::SpaceKind::kTorus, derive_seed(opt.seed, kTorusSeeds, r)),
                            spans, "sim::run torus", r);
    used += round.ring.wall_s + round.torus.wall_s;
    rounds.push_back(std::move(round));
  }
  return rounds;
}

/// Mean and slowest wall time of one trial of a call, in microseconds.
double mean_trial_us(const Timed& t) { return t.report.trial_seconds_mean * 1e6; }
double slowest_trial_us(const Timed& t) { return t.report.trial_seconds_max * 1e6; }

/// Trial 0 of `call` rerun on the resolved engine and on Engine::kScalar:
/// tie = first makes the engines bit-identical, so the max loads must
/// agree, and must be one of the call's own per-trial outcomes. Returns
/// the balls of trial 0 when they do not.
std::uint64_t anchor_failures(const sim::RunReport& call) {
  sim::Scenario one = call.spec;
  one.trials = 1;
  one.threads = 1;
  sim::Scenario scalar = one;
  scalar.engine = sim::Engine::kScalar;
  const auto fast = sim::run(one).max_load;
  const auto slow = sim::run(scalar).max_load;
  const bool ok = fast == slow && fast.total() == 1 &&
                  call.max_load.count(fast.max_value()) > 0;
  return ok ? 0 : call.spec.balls();
}

template <typename Space>
void add_space_layers(Result& res, SpanRecorder& spans, const std::string& name,
                      const Space& space, std::uint64_t seed,
                      double cpu_ns_per_ball) {
  using Loc = typename Space::Location;
  auto gen = rng::make_stream(seed, 0, rng::StreamPurpose::kBallChoices);
  std::vector<Loc> locs(kBlocks * kBlock * kChoices);
  std::vector<spaces::BinIndex> bins(locs.size());
  const std::size_t per_block = kBlock * kChoices;
  const std::uint64_t balls = kBlocks * kBlock;
  double sample_ns = 0.0, owner_ns = 0.0;
  {
    Scope s(spans, Layer::kIsolated, "sample_block");
    sample_ns = median_ns_per_item(kRepeats, balls, [&](std::uint64_t& sink) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        space.sample_block(gen, std::span<Loc>(locs.data() + b * per_block, per_block));
      }
      sink += static_cast<std::uint64_t>(sizeof(locs[0]));
    });
  }
  {
    Scope s(spans, Layer::kIsolated, "owner_batch");
    owner_ns = median_ns_per_item(kRepeats, balls, [&](std::uint64_t& sink) {
      for (std::size_t b = 0; b < kBlocks; ++b) {
        space.owner_batch(std::span<const Loc>(locs.data() + b * per_block, per_block),
                          std::span<spaces::BinIndex>(bins.data() + b * per_block, per_block));
        sink += bins[b * per_block];
      }
    });
  }
  res.add("spaces." + name + ".sample_ns_per_ball", "ns", sample_ns);
  res.add("spaces." + name + ".owner_ns_per_ball", "ns", owner_ns);
  res.add("core." + name + ".residual_ns_per_ball", "ns",
          cpu_ns_per_ball - sample_ns - owner_ns);
}

}  // namespace

Result run_place(const Options& opt) {
  Result res;
  std::vector<SetupSample> setup_samples;
  std::vector<Round> rounds =
      run_rounds(opt, opt.seconds, kMinRounds, nullptr, &setup_samples);
  std::vector<double> setup, ring_build, torus_build;
  for (const SetupSample& s : setup_samples) {
    setup.push_back(s.ring_s + s.torus_s);
    ring_build.push_back(s.ring_s);
    torus_build.push_back(s.torus_s);
  }
  const std::uint64_t balls_per_round =
      kRingTrials * kRingBalls + kTorusTrials * kTorusBalls;
  res.attempted = balls_per_round * rounds.size();
  for (const Timed* call : {&rounds.front().ring, &rounds.front().torus}) {
    const std::uint64_t bad = anchor_failures(call->report);
    if (bad > 0) {
      res.failed += bad;
      res.note("place.failure", std::string(sim::to_string(call->report.spec.space)) +
                                    " trial 0 differs from Engine::kScalar");
    }
  }
  res.note("engine", "ring=" + std::string(sim::to_string(rounds.front().ring.report.spec.engine)) +
                         " torus=" + std::string(sim::to_string(rounds.front().torus.report.spec.engine)));
  res.note("workers", std::to_string(rounds.front().ring.report.spec.threads));
  res.note("place.rounds", std::to_string(rounds.size()));

  std::vector<double> balls_per_s, ring_mean, ring_slowest, torus_mean, torus_slowest;
  for (const Round& r : rounds) {
    balls_per_s.push_back(r.balls_per_s());
    ring_mean.push_back(mean_trial_us(r.ring));
    ring_slowest.push_back(slowest_trial_us(r.ring));
    torus_mean.push_back(mean_trial_us(r.torus));
    torus_slowest.push_back(slowest_trial_us(r.torus));
  }

  if (!opt.trace) {
    res.add("setup_s", "s", median(setup));
    res.add("ops_per_sec", "1/s", median(balls_per_s));
    res.add("insert_p50_us", "us", median(ring_mean));
    res.add("insert_p90_us", "us", median(ring_slowest));
    res.add("get_p50_us", "us", median(torus_mean));
    res.add("get_p90_us", "us", median(torus_slowest));
    res.add("peak_rss_mb", "MB", peak_rss_mb());
    return res;
  }

  SpanRecorder spans;
  const std::vector<Round> traced =
      run_rounds(opt, opt.seconds / 4.0, kMinTracedRounds, &spans, nullptr);
  res.attempted += balls_per_round * traced.size();
  std::vector<double> traced_balls_per_s, ring_ns, torus_ns, ring_cpu, torus_cpu, util;
  for (const Round& r : traced) traced_balls_per_s.push_back(r.balls_per_s());
  for (const Round& r : rounds) {
    const auto ring_balls = static_cast<double>(kRingTrials * kRingBalls);
    const auto torus_balls = static_cast<double>(kTorusTrials * kTorusBalls);
    ring_ns.push_back(r.ring.wall_s * 1e9 / ring_balls);
    torus_ns.push_back(r.torus.wall_s * 1e9 / torus_balls);
    ring_cpu.push_back(r.ring.report.total_seconds * 1e9 / ring_balls);
    torus_cpu.push_back(r.torus.report.total_seconds * 1e9 / torus_balls);
    util.push_back((r.ring.report.total_seconds + r.torus.report.total_seconds) /
                   (static_cast<double>(r.ring.report.spec.threads) *
                    (r.ring.wall_s + r.torus.wall_s)));
  }
  res.add("place.ring.ns_per_ball", "ns", median(ring_ns));
  res.add("place.torus.ns_per_ball", "ns", median(torus_ns));
  {
    Scope s(spans, Layer::kIsolated, "place.isolated");
    const std::uint64_t ring_seed = derive_seed(opt.seed, kRingSeeds, 0);
    const std::uint64_t torus_seed = derive_seed(opt.seed, kTorusSeeds, 0);
    auto ring_gen = rng::make_stream(ring_seed, 0, rng::StreamPurpose::kServerPlacement);
    auto torus_gen = rng::make_stream(torus_seed, 0, rng::StreamPurpose::kServerPlacement);
    add_space_layers(res, spans, "ring", spaces::RingSpace::random(kBins, ring_gen),
                     ring_seed, median(ring_cpu));
    add_space_layers(res, spans, "torus", spaces::TorusSpace::random(kBins, torus_gen),
                     torus_seed, median(torus_cpu));
  }
  res.add("spaces.ring.build_ms", "ms", median(ring_build) * 1e3);
  res.add("spaces.torus.build_ms", "ms", median(torus_build) * 1e3);
  res.add("parallel.pool_utilization", "ratio", median(util));
  res.add("trace_overhead", "ratio", median(traced_balls_per_s) / median(balls_per_s));
  res.add("failed_op_ratio", "ratio", res.failed_ratio());
  res.trace_file = opt.scratch + "/trace_place.json";
  spans.write_chrome_json(res.trace_file);
  return res;
}

}  // namespace perfbench
