#include "sim/scenario.hpp"

#include <chrono>
#include <cstdio>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>

#include "core/batch_process.hpp"
#include "dht/chord.hpp"
#include "net/chord_space.hpp"
#include "net/cluster.hpp"
#include "net/message.hpp"
#include "net/simulator.hpp"
#include "obs/obs.hpp"
#include "parallel/trial_runner.hpp"
#include "rng/streams.hpp"
#include "sim/cli.hpp"
#include "sim/table_format.hpp"
#include "spaces/ring_space.hpp"
#include "spaces/torus_nd_space.hpp"
#include "spaces/torus_space.hpp"
#include "spaces/uniform_space.hpp"
#include "spaces/weighted_space.hpp"

namespace geochoice::sim {

std::string_view to_string(SpaceKind k) noexcept {
  switch (k) {
    case SpaceKind::kRing:
      return "ring";
    case SpaceKind::kTorus:
      return "torus";
    case SpaceKind::kUniform:
      return "uniform";
    case SpaceKind::kTorusNd:
      return "torus-nd";
    case SpaceKind::kWeighted:
      return "weighted";
    case SpaceKind::kChordNet:
      return "chord";
  }
  return "?";
}

SpaceKind space_kind_from_string(std::string_view name) {
  if (name == "ring") return SpaceKind::kRing;
  if (name == "torus") return SpaceKind::kTorus;
  if (name == "uniform") return SpaceKind::kUniform;
  if (name == "torus-nd" || name == "torusnd") return SpaceKind::kTorusNd;
  if (name == "weighted") return SpaceKind::kWeighted;
  if (name == "chord" || name == "chord-net") return SpaceKind::kChordNet;
  throw std::invalid_argument("unknown space kind: " + std::string(name));
}

std::string_view to_string(Engine e) noexcept {
  switch (e) {
    case Engine::kScalar:
      return "scalar";
    case Engine::kBatched:
      return "batched";
    case Engine::kSharded:
      return "sharded";
    case Engine::kAuto:
      return "auto";
  }
  return "?";
}

Engine engine_from_string(std::string_view name) {
  if (name == "scalar") return Engine::kScalar;
  if (name == "batched") return Engine::kBatched;
  if (name == "sharded") return Engine::kSharded;
  if (name == "auto") return Engine::kAuto;
  throw std::invalid_argument("unknown engine: " + std::string(name));
}

std::string_view to_string(ExecModel m) noexcept {
  switch (m) {
    case ExecModel::kStructural:
      return "structural";
    case ExecModel::kWire:
      return "wire";
  }
  return "?";
}

ExecModel exec_model_from_string(std::string_view name) {
  if (name == "structural") return ExecModel::kStructural;
  if (name == "wire" || name == "net") return ExecModel::kWire;
  throw std::invalid_argument("unknown exec model: " + std::string(name));
}

std::string_view to_string(WireTransport t) noexcept {
  switch (t) {
    case WireTransport::kSim:
      return "sim";
    case WireTransport::kUdp:
      return "udp";
  }
  return "?";
}

WireTransport wire_transport_from_string(std::string_view name) {
  if (name == "sim") return WireTransport::kSim;
  if (name == "udp") return WireTransport::kUdp;
  throw std::invalid_argument("unknown wire transport: " + std::string(name));
}

namespace {

[[nodiscard]] std::size_t resolve_threads(std::size_t threads) noexcept {
  if (threads != 0) return threads;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

Engine resolve_engine(const Scenario& sc) noexcept {
  if (sc.engine != Engine::kAuto) return sc.engine;
  const bool geometric_bulk =
      sc.space == SpaceKind::kRing || sc.space == SpaceKind::kTorus;
  if (!geometric_bulk) return Engine::kScalar;
  const std::uint64_t m = sc.balls();
  // The in-trial pool pays when one or two trials would leave most of the
  // trial pool's threads idle. At n = 2^16, m = 2^22 on 4 threads it wins
  // at one and two trials on both spaces; on the torus it is a toss-up at
  // three and loses at four (README's engine guide has the times).
  if (m >= (1ull << 22) && sc.trials <= 2 &&
      resolve_threads(sc.threads) >= 4) {
    return Engine::kSharded;
  }
  if (m >= 4096) return Engine::kBatched;
  return Engine::kScalar;
}

namespace {

using Clock = std::chrono::steady_clock;

struct TrialOutcome {
  std::uint32_t max_load = 0;
  double seconds = 0.0;
};

core::ProcessOptions process_options(const Scenario& sc) {
  core::ProcessOptions opt;
  opt.num_balls = sc.balls();
  opt.num_choices = sc.num_choices;
  opt.tie = sc.tie;
  opt.scheme = sc.scheme;
  return opt;
}

/// The Chord space borrows its ring, so the trial's factory hands back a
/// box owning both; the unique_ptr keeps the ring address stable across
/// box moves.
struct ChordNetBox {
  std::unique_ptr<dht::ChordRing> ring;
  net::ChordSuccessorSpace space;
};

template <typename S>
const S& space_of(const S& s) {
  return s;
}
const net::ChordSuccessorSpace& space_of(const ChordNetBox& b) {
  return b.space;
}

/// Run one trial's balls through the resolved engine: the scalar oracle,
/// or the batched engine on `pool` (the run's pool under kSharded, none
/// under kBatched). The ball stream is shared across engines, which is
/// what makes deterministic-tie results bit-identical engine-to-engine.
template <typename S>
std::uint32_t drive_engine(const S& space, Engine engine,
                           const core::ProcessOptions& opt,
                           rng::DefaultEngine& balls,
                           parallel::ThreadPool* pool) {
  if (engine == Engine::kScalar) {
    return core::run_process(space, opt, balls).max_load;
  }
  return core::run_batch_process(space, opt, balls, {}, pool).max_load;
}

/// Execute all trials for one concrete space type. `make_space(trial,
/// servers_engine)` builds the trial's space (or box) from its
/// kServerPlacement substream — the derivation every pinned golden
/// histogram was produced with.
template <typename MakeSpace>
std::vector<TrialOutcome> run_trials_with(const Scenario& sc, Engine engine,
                                          MakeSpace&& make_space) {
  const core::ProcessOptions opt = process_options(sc);

  auto one_trial = [&](std::uint64_t trial,
                       parallel::ThreadPool* pool) -> TrialOutcome {
    auto servers = rng::make_stream(sc.seed, trial,
                                    rng::StreamPurpose::kServerPlacement);
    auto balls =
        rng::make_stream(sc.seed, trial, rng::StreamPurpose::kBallChoices);
    const auto t0 = Clock::now();
    const auto box = make_space(trial, servers);
    const std::uint32_t max_load =
        drive_engine(space_of(box), engine, opt, balls, pool);
    const auto t1 = Clock::now();
    if (obs::enabled()) {
      // Per-thread sinks: safe from the trial pool's worker threads.
      static const obs::Counter trials_done("scenario.trials");
      static const obs::Counter balls_placed("scenario.balls");
      trials_done.add(1);
      balls_placed.add(opt.num_balls);
    }
    return {max_load, std::chrono::duration<double>(t1 - t0).count()};
  };

  if (engine == Engine::kSharded) {
    // Few-huge-trials regime: trials run back-to-back, each spreading its
    // resolve pass over one shared worker pool. Results are still indexed
    // by trial, so the report is identical in shape to the parallel-trials
    // path.
    parallel::ThreadPool pool(sc.threads);
    std::vector<TrialOutcome> out(sc.trials);
    for (std::uint64_t t = 0; t < sc.trials; ++t) out[t] = one_trial(t, &pool);
    return out;
  }
  return parallel::run_trials(
      sc.trials, sc.seed,
      [&](std::uint64_t trial, rng::DefaultEngine& /*unused*/) {
        return one_trial(trial, nullptr);
      },
      sc.threads);
}

template <int D>
std::vector<TrialOutcome> run_torus_nd(const Scenario& sc, Engine engine,
                                       std::uint64_t measure_samples) {
  return run_trials_with(sc, engine, [&](std::uint64_t,
                                         rng::DefaultEngine& servers) {
    auto space = spaces::TorusNdSpace<D>::random(sc.num_servers, servers);
    if (core::needs_region_measure(sc.tie)) {
      space.estimate_measures(measure_samples, servers);
    }
    return space;
  });
}

/// The space registry: kind -> factory, engine threaded through. Adding a
/// space means adding a case here — nothing else in the harness or the
/// binaries changes.
std::vector<TrialOutcome> run_space(const Scenario& sc, Engine engine,
                                    std::uint64_t measure_samples) {
  switch (sc.space) {
    case SpaceKind::kRing:
      return run_trials_with(
          sc, engine, [&](std::uint64_t, rng::DefaultEngine& servers) {
            return spaces::RingSpace::random(sc.num_servers, servers);
          });
    case SpaceKind::kTorus:
      return run_trials_with(
          sc, engine, [&](std::uint64_t, rng::DefaultEngine& servers) {
            auto space = spaces::TorusSpace::random(sc.num_servers, servers);
            if (core::needs_region_measure(sc.tie)) space.ensure_measures();
            return space;
          });
    case SpaceKind::kUniform:
      return run_trials_with(sc, engine,
                             [&](std::uint64_t, rng::DefaultEngine&) {
                               return spaces::UniformSpace(sc.num_servers);
                             });
    case SpaceKind::kTorusNd:
      switch (sc.torus_dims) {
        case 1:
          return run_torus_nd<1>(sc, engine, measure_samples);
        case 2:
          return run_torus_nd<2>(sc, engine, measure_samples);
        case 3:
          return run_torus_nd<3>(sc, engine, measure_samples);
        case 4:
          return run_torus_nd<4>(sc, engine, measure_samples);
        default:
          break;
      }
      throw std::invalid_argument("run: torus_dims must be in [1, 4]");
    case SpaceKind::kWeighted:
      return run_trials_with(
          sc, engine, [&](std::uint64_t, rng::DefaultEngine&) {
            return spaces::WeightedSpace::zipf(sc.num_servers, sc.zipf_alpha);
          });
    case SpaceKind::kChordNet:
      return run_trials_with(
          sc, engine, [&](std::uint64_t, rng::DefaultEngine& servers) {
            auto ring = std::make_unique<dht::ChordRing>(
                dht::ChordRing::random(sc.num_servers, servers));
            net::ChordSuccessorSpace space(*ring);
            return ChordNetBox{std::move(ring), space};
          });
  }
  throw std::logic_error("run: unreachable space kind");
}

/// Every check a spec must pass, on the calling thread with scenario-level
/// messages, before any trial starts (a throw inside a trial would reach
/// the caller only as whichever trial's exception ThreadPool::wait
/// rethrows first). Wire runs route on the Chord ring and draw independent
/// candidates; the simulated transport needs a valid latency model (the
/// real one pays the kernel's).
void validate(const Scenario& sc) {
  if (sc.trials == 0) throw std::invalid_argument("run: zero trials");
  if (sc.num_servers == 0) throw std::invalid_argument("run: zero servers");
  if (sc.num_choices < 1) {
    throw std::invalid_argument("run: need at least one choice");
  }
  for (const double q : sc.quantiles) {
    if (!(q > 0.0 && q < 1.0)) {
      throw std::invalid_argument("run: quantiles must lie in (0, 1)");
    }
  }
  if (sc.model == ExecModel::kWire) {
    if (sc.space != SpaceKind::kChordNet) {
      throw std::invalid_argument(
          "run: the wire model routes on the Chord ring; use --space=chord");
    }
    if (sc.scheme != core::ChoiceScheme::kIndependent) {
      throw std::invalid_argument(
          "run: the wire protocol draws independent candidates; partitioned "
          "sampling is structural-only");
    }
    if (core::needs_region_measure(sc.tie)) {
      throw std::invalid_argument(
          "run: region-measure tie-breaks would need arc sizes on the wire");
    }
    if (sc.window < 1) throw std::invalid_argument("run: window must be >= 1");
    if (sc.transport == WireTransport::kSim) sc.latency.validate();
    return;
  }
  if (sc.scheme == core::ChoiceScheme::kPartitioned &&
      sc.space != SpaceKind::kRing && sc.space != SpaceKind::kChordNet) {
    throw std::invalid_argument(
        "run: partitioned sampling requires a ring-like space");
  }
  if (sc.space == SpaceKind::kTorusNd &&
      (sc.torus_dims < 1 || sc.torus_dims > 4)) {
    throw std::invalid_argument("run: torus_dims must be in [1, 4]");
  }
}

/// The report's resolved spec: engine concrete, m/threads explicit.
RunReport resolved_report(const Scenario& sc, Engine engine) {
  RunReport report;
  report.spec = sc;
  report.spec.engine = engine;
  report.spec.num_balls = sc.balls();
  report.spec.threads = resolve_threads(sc.threads);
  return report;
}

/// What every run reports the same way, from its trials in trial order:
/// the max-load histogram and its exact quantiles (every per-trial max
/// load is retained, so there is nothing to stream-estimate), the trial
/// timing, and throughput over the summed trial seconds.
void finish_report(const std::vector<TrialOutcome>& trials,
                   RunReport& report) {
  double min_s = 0.0, max_s = 0.0, sum_s = 0.0;
  bool first = true;
  for (const TrialOutcome& o : trials) {
    report.max_load.add(o.max_load);
    sum_s += o.seconds;
    if (first || o.seconds < min_s) min_s = o.seconds;
    if (first || o.seconds > max_s) max_s = o.seconds;
    first = false;
  }
  const Scenario& sc = report.spec;
  report.quantile_values.reserve(sc.quantiles.size());
  for (const double q : sc.quantiles) {
    report.quantile_values.push_back(
        static_cast<double>(report.max_load.quantile(q)));
  }
  report.total_seconds = sum_s;
  report.trial_seconds_min = min_s;
  report.trial_seconds_max = max_s;
  report.trial_seconds_mean = sum_s / static_cast<double>(trials.size());
  if (sum_s > 0.0) {
    report.balls_per_sec = static_cast<double>(sc.balls()) *
                           static_cast<double>(sc.trials) / sum_s;
  }
}

/// One wire trial: the run's result, in either world, and its wall time.
struct WireTrial {
  net::WireResult run;
  double seconds = 0.0;
};

/// Trial `trial` of a wire scenario on its transport, timed like a
/// structural trial (ring build plus run). Only `trace` (trial 0's, or
/// null) records.
WireTrial wire_trial(const Scenario& sc, std::uint64_t trial,
                     obs::TraceRecorder* trace) {
  WireTrial out;
  const auto t0 = Clock::now();
  if (sc.transport == WireTransport::kSim) {
    net::NetConfig cfg;
    cfg.nodes = static_cast<std::size_t>(sc.num_servers);
    cfg.keys = sc.balls();
    cfg.choices = sc.num_choices;
    cfg.window = sc.window;
    cfg.tie = sc.tie;
    cfg.latency = sc.latency;
    cfg.lookups = sc.lookups;
    cfg.seed = sc.seed;
    cfg.trial = trial;
    cfg.trace = trace;
    out.run = net::NetSimulator::simulate(cfg);
  } else {
    net::ClusterConfig cc;
    cc.nodes = static_cast<std::size_t>(sc.num_servers);
    cc.driver = {.inserts = sc.balls(), .lookups = sc.lookups,
                 .choices = sc.num_choices, .window = sc.window,
                 .tie = sc.tie, .seed = sc.seed, .trial = trial,
                 .trace = trace};
    out.run = net::run_loopback_cluster(cc);
  }
  out.seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  // The aggregation reads no per-key or per-node vector: free them, so the
  // trials a run keeps until it aggregates hold no per-key memory.
  out.run.client.placements = std::vector<std::uint32_t>();
  out.run.client.loads = std::vector<std::uint32_t>();
  return out;
}

/// The wire metrics of a run, summed in trial order with each per-trial
/// term divided by the trial count.
WireMetrics aggregate_wire(const std::vector<WireTrial>& trials) {
  WireMetrics w;
  w.present = true;
  const auto t = static_cast<double>(trials.size());
  std::uint64_t inserts = 0, links = 0, probe_hops = 0, stale = 0;
  for (const WireTrial& trial : trials) {
    const net::DriverReport& c = trial.run.client;
    const net::NodeStats& n = trial.run.nodes;
    w.mean_lookup_hops += c.lookup_hops.mean() / t;
    w.lookup_hops_p50 += c.lookup_hops_q.value(0) / t;
    w.lookup_hops_p90 += c.lookup_hops_q.value(1) / t;
    w.lookup_hops_p99 += c.lookup_hops_q.value(2) / t;
    w.insert_latency_p50 += c.insert_latency_us_q.value(0) / t;
    w.insert_latency_p90 += c.insert_latency_us_q.value(1) / t;
    w.insert_latency_p99 += c.insert_latency_us_q.value(2) / t;
    w.lookup_latency_p50 += c.lookup_latency_us_q.value(0) / t;
    w.lookup_latency_p90 += c.lookup_latency_us_q.value(1) / t;
    w.lookup_latency_p99 += c.lookup_latency_us_q.value(2) / t;
    w.mean_events += static_cast<double>(trial.run.events) / t;
    w.mean_end_time += trial.run.end_us / t;
    inserts += c.inserts;
    for (const net::MsgType k : {net::MsgType::kProbe,
                                 net::MsgType::kProbeReply,
                                 net::MsgType::kPlace,
                                 net::MsgType::kPlaceAck}) {
      links += n.links.by_type[static_cast<std::size_t>(k)];
    }
    probe_hops += c.probe_hops;
    stale += n.stale_reads;
    w.datagrams += n.links.total;
    w.malformed += n.malformed;
    w.data_retransmits += c.data_retransmits;
    w.census_retries += c.census_retries;
  }
  w.retransmits = w.data_retransmits + w.census_retries;
  if (inserts > 0) {
    const auto per_insert = [inserts](std::uint64_t v) {
      return static_cast<double>(v) / static_cast<double>(inserts);
    };
    w.links_per_insert = per_insert(links);
    w.probe_hops_per_insert = per_insert(probe_hops);
    w.stale_fraction = per_insert(stale);
  }
  return w;
}

/// Serialize the run's trace to `path` as Chrome trace-event JSON (load in
/// Perfetto or chrome://tracing). Throws if the file cannot be written —
/// a silently dropped trace is worse than a failed run.
void write_trace_file(const obs::TraceRecorder& rec, const std::string& path) {
  std::vector<std::string> type_names;
  type_names.reserve(net::kMsgTypeCount);
  for (int i = 0; i < net::kMsgTypeCount; ++i) {
    type_names.emplace_back(
        net::to_string(static_cast<net::MsgType>(i)));
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    throw std::runtime_error("run: cannot open trace-out file: " + path);
  }
  out << rec.to_chrome_json(type_names);
  if (!out.good()) {
    throw std::runtime_error("run: failed writing trace-out file: " + path);
  }
}

RunReport run_wire(const Scenario& sc) {
  // Wire runs have no structural engine; echo kScalar so the resolved
  // spec is concrete (never kAuto) and reruns cleanly.
  validate(sc);
  RunReport report = resolved_report(sc, Engine::kScalar);

  // One recorder serves both transports: a trial is single-threaded at
  // the record sites, and only trial 0 writes, so the ring never sees two
  // writers.
  std::unique_ptr<obs::TraceRecorder> recorder;
  if (!sc.trace_out.empty()) {
    recorder = std::make_unique<obs::TraceRecorder>();
  }
  // udp trials share the kernel's loopback path and the wall clock, so
  // parallel ones would contend, not speed up: they get one thread.
  const auto trials = parallel::run_trials(
      sc.trials, sc.seed,
      [&](std::uint64_t trial, rng::DefaultEngine& /*unused*/) {
        return wire_trial(sc, trial, trial == 0 ? recorder.get() : nullptr);
      },
      sc.transport == WireTransport::kUdp ? 1 : sc.threads);
  if (recorder) write_trace_file(*recorder, sc.trace_out);

  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(trials.size());
  for (const WireTrial& t : trials) {
    outcomes.push_back({t.run.client.max_load, t.seconds});
  }
  finish_report(outcomes, report);
  report.wire = aggregate_wire(trials);
  return report;
}

RunReport run_structural(const Scenario& sc) {
  validate(sc);
  const Engine engine = resolve_engine(sc);
  const std::uint64_t measure_samples =
      sc.measure_samples != 0 ? sc.measure_samples : 64 * sc.num_servers;

  const auto outcomes = run_space(sc, engine, measure_samples);

  RunReport report = resolved_report(sc, engine);
  if (sc.space == SpaceKind::kTorusNd &&
      core::needs_region_measure(sc.tie)) {
    report.spec.measure_samples = measure_samples;
  }
  finish_report(outcomes, report);
  return report;
}

}  // namespace

RunReport run(const Scenario& sc) {
  const bool obs_on = sc.obs || !sc.trace_out.empty();
  if (!sc.trace_out.empty()) {
    if (!obs::compiled_in()) {
      throw std::invalid_argument(
          "run: --trace-out needs the obs layer; rebuild with "
          "-DGEOCHOICE_OBS=ON");
    }
    if (sc.model != ExecModel::kWire) {
      throw std::invalid_argument(
          "run: --trace-out records message lifecycles; structural runs "
          "have no messages (use --model=wire)");
    }
  }
  if (!obs_on || !obs::compiled_in()) {
    // A bare --obs on an obs-less build is legal (the report's metrics
    // vector just stays empty), so scripts can pass it unconditionally.
    return sc.model == ExecModel::kWire ? run_wire(sc) : run_structural(sc);
  }
  // Fresh counters per run, toggle restored even on throw. The toggle is
  // the only global the wrapped run sees: metrics never touch RNG
  // substreams or event ordering (pinned by the golden-hash tests).
  obs::Registry::global().reset();
  obs::set_enabled(true);
  RunReport report;
  try {
    report = sc.model == ExecModel::kWire ? run_wire(sc) : run_structural(sc);
  } catch (...) {
    obs::set_enabled(false);
    throw;
  }
  obs::set_enabled(false);
  report.metrics = obs::Registry::global().snapshot();
  return report;
}

Scenario scenario_from_args(const ArgParser& args, Scenario defaults) {
  Scenario sc = std::move(defaults);
  sc.space = space_kind_from_string(
      args.get_string("space", std::string(to_string(sc.space))));
  sc.engine = engine_from_string(
      args.get_string("engine", std::string(to_string(sc.engine))));
  // --n accepts a comma list so sweep binaries can share the flag; the
  // scenario itself is one cell, seeded from the first entry.
  const auto sizes = args.get_u64_list("n", {sc.num_servers});
  if (sizes.empty()) throw std::invalid_argument("flag n: empty list");
  sc.num_servers = sizes.front();
  sc.num_balls = args.get_u64("m", sc.num_balls);
  sc.num_choices = args.get_int("d", sc.num_choices);
  sc.tie = core::tie_break_from_string(
      args.get_string("tie", std::string(core::to_string(sc.tie))));
  {
    const std::string scheme = args.get_string(
        "scheme", std::string(core::to_string(sc.scheme)));
    if (scheme == "independent") {
      sc.scheme = core::ChoiceScheme::kIndependent;
    } else if (scheme == "partitioned") {
      sc.scheme = core::ChoiceScheme::kPartitioned;
    } else {
      throw std::invalid_argument("flag scheme: expected independent or "
                                  "partitioned, got " + scheme);
    }
  }
  sc.trials = args.get_u64("trials", sc.trials);
  sc.seed = args.get_u64("seed", sc.seed);
  sc.threads = args.get_u64("threads", sc.threads);
  sc.torus_dims = args.get_int("dims", sc.torus_dims);
  sc.zipf_alpha = args.get_double("alpha", sc.zipf_alpha);
  sc.measure_samples = args.get_u64("measure-samples", sc.measure_samples);
  sc.model = exec_model_from_string(
      args.get_string("model", std::string(to_string(sc.model))));
  sc.transport = wire_transport_from_string(
      args.get_string("transport", std::string(to_string(sc.transport))));
  sc.latency.kind = net::latency_kind_from_string(args.get_string(
      "latency", std::string(net::to_string(sc.latency.kind))));
  sc.latency.a = args.get_double("lat-a", sc.latency.a);
  sc.latency.b = args.get_double("lat-b", sc.latency.b);
  sc.window = args.get_int("window", sc.window);
  sc.lookups = args.get_u64("lookups", sc.lookups);
  if (args.has("obs")) sc.obs = true;
  sc.trace_out = args.get_string("trace-out", sc.trace_out);
  return sc;
}

namespace {

[[nodiscard]] std::string quantile_label(double q) {
  char buf[32];
  const double pct = q * 100.0;
  if (pct == static_cast<double>(static_cast<int>(pct))) {
    std::snprintf(buf, sizeof(buf), "p%d", static_cast<int>(pct));
  } else {
    std::snprintf(buf, sizeof(buf), "p%.3g", pct);
  }
  return buf;
}

[[nodiscard]] std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

/// The wire block scenario_json writes and the columns scenario_csv_*
/// add for a wire-model spec, in that order; `text` values are quoted in
/// JSON.
struct WireField {
  const char* name;
  std::string value;
  bool text = false;
};

[[nodiscard]] std::vector<WireField> wire_fields(const Scenario& sc,
                                                 const WireMetrics& w) {
  const auto u = [](std::uint64_t v) { return std::to_string(v); };
  return {
      {"transport", std::string(to_string(sc.transport)), true},
      {"latency", std::string(net::to_string(sc.latency.kind)), true},
      {"lat_a", format_double(sc.latency.a)},
      {"lat_b", format_double(sc.latency.b)},
      {"window", u(sc.window)},
      {"lookups", u(sc.lookups)},
      {"links_per_insert", format_double(w.links_per_insert)},
      {"probe_hops_per_insert", format_double(w.probe_hops_per_insert)},
      {"stale_fraction", format_double(w.stale_fraction)},
      {"insert_latency_p50", format_double(w.insert_latency_p50)},
      {"insert_latency_p90", format_double(w.insert_latency_p90)},
      {"insert_latency_p99", format_double(w.insert_latency_p99)},
      {"mean_lookup_hops", format_double(w.mean_lookup_hops)},
      {"lookup_hops_p50", format_double(w.lookup_hops_p50)},
      {"lookup_hops_p90", format_double(w.lookup_hops_p90)},
      {"lookup_hops_p99", format_double(w.lookup_hops_p99)},
      {"lookup_latency_p50", format_double(w.lookup_latency_p50)},
      {"lookup_latency_p90", format_double(w.lookup_latency_p90)},
      {"lookup_latency_p99", format_double(w.lookup_latency_p99)},
      {"mean_end_time", format_double(w.mean_end_time)},
      {"datagrams", u(w.datagrams)},
      {"malformed", u(w.malformed)},
      {"retransmits", u(w.retransmits)},
      {"data_retransmits", u(w.data_retransmits)},
      {"census_retries", u(w.census_retries)},
  };
}

}  // namespace

std::string render_run_summary(const RunReport& report) {
  const Scenario& sc = report.spec;
  std::string out;
  char buf[256];
  std::snprintf(
      buf, sizeof(buf),
      "scenario: space=%s engine=%s n=%llu m=%llu d=%d tie=%s scheme=%s\n",
      std::string(to_string(sc.space)).c_str(),
      std::string(to_string(sc.engine)).c_str(),
      static_cast<unsigned long long>(sc.num_servers),
      static_cast<unsigned long long>(sc.balls()), sc.num_choices,
      std::string(core::to_string(sc.tie)).c_str(),
      std::string(core::to_string(sc.scheme)).c_str());
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "          trials=%llu seed=0x%llx threads=%zu\n",
                static_cast<unsigned long long>(sc.trials),
                static_cast<unsigned long long>(sc.seed), sc.threads);
  out += buf;
  if (report.wire.present) {
    const WireMetrics& w = report.wire;
    std::snprintf(buf, sizeof(buf),
                  "wire:     model=wire transport=%s latency=%s(%g, %g) "
                  "window=%u lookups=%llu\n",
                  std::string(to_string(sc.transport)).c_str(),
                  std::string(net::to_string(sc.latency.kind)).c_str(),
                  sc.latency.a, sc.latency.b, sc.window,
                  static_cast<unsigned long long>(sc.lookups));
    out += buf;
    std::snprintf(buf, sizeof(buf),
                  "          links/insert %.2f, probe hops/insert %.2f, "
                  "stale %.4f, insert lat p50/p90/p99 %.2f/%.2f/%.2f\n",
                  w.links_per_insert, w.probe_hops_per_insert,
                  w.stale_fraction, w.insert_latency_p50,
                  w.insert_latency_p90, w.insert_latency_p99);
    out += buf;
    if (sc.lookups > 0) {
      std::snprintf(buf, sizeof(buf),
                    "          lookup hops mean %.2f p50/p90/p99 "
                    "%.1f/%.1f/%.1f, lookup lat p50/p90/p99 "
                    "%.2f/%.2f/%.2f\n",
                    w.mean_lookup_hops, w.lookup_hops_p50, w.lookup_hops_p90,
                    w.lookup_hops_p99, w.lookup_latency_p50,
                    w.lookup_latency_p90, w.lookup_latency_p99);
      out += buf;
    }
    out += "          ";
    if (sc.transport == WireTransport::kUdp) {
      std::snprintf(buf, sizeof(buf), "datagrams %llu, malformed %llu, ",
                    static_cast<unsigned long long>(w.datagrams),
                    static_cast<unsigned long long>(w.malformed));
      out += buf;
    }
    std::snprintf(buf, sizeof(buf),
                  "retransmits %llu (data %llu, census %llu)\n",
                  static_cast<unsigned long long>(w.retransmits),
                  static_cast<unsigned long long>(w.data_retransmits),
                  static_cast<unsigned long long>(w.census_retries));
    out += buf;
  }
  if (!report.metrics.empty()) {
    out += "metrics:\n";
    for (const obs::MetricValue& m : report.metrics) {
      switch (m.kind) {
        case obs::MetricKind::kCounter:
          std::snprintf(buf, sizeof(buf), "  %-32s %llu\n", m.name.c_str(),
                        static_cast<unsigned long long>(m.count));
          break;
        case obs::MetricKind::kGauge:
          std::snprintf(buf, sizeof(buf), "  %-32s %s (last of %llu writes)\n",
                        m.name.c_str(), format_double(m.value).c_str(),
                        static_cast<unsigned long long>(m.count));
          break;
        case obs::MetricKind::kHistogram:
          std::snprintf(buf, sizeof(buf),
                        "  %-32s count %llu, sum %s, mean %s\n",
                        m.name.c_str(),
                        static_cast<unsigned long long>(m.count),
                        format_double(m.value).c_str(),
                        format_double(m.count > 0
                                          ? m.value /
                                                static_cast<double>(m.count)
                                          : 0.0)
                            .c_str());
          break;
      }
      out += buf;
    }
  }
  std::snprintf(buf, sizeof(buf),
                "timing:   total %.3fs, per trial %.2g/%.2g/%.2g s "
                "(min/mean/max), %.3g balls/sec\n",
                report.total_seconds, report.trial_seconds_min,
                report.trial_seconds_mean, report.trial_seconds_max,
                report.balls_per_sec);
  out += buf;
  out += "max load: mean " + format_double(report.max_load.mean());
  for (std::size_t i = 0; i < report.quantile_values.size(); ++i) {
    out += ", " + quantile_label(sc.quantiles[i]) + " " +
           format_double(report.quantile_values[i]);
  }
  out += "\n\ndistribution of max load over trials:\n";
  for (const auto& line : distribution_lines(report.max_load)) {
    out += "  " + line + "\n";
  }
  return out;
}

std::vector<std::string> scenario_csv_header(const Scenario& spec) {
  std::vector<std::string> h = {
      "space", "engine", "n",     "m",          "d",
      "tie",   "scheme", "trials", "seed",      "threads",
      "dims",  "alpha",  "measure_samples",     "mean_max_load",
  };
  for (const double q : spec.quantiles) h.push_back(quantile_label(q));
  h.insert(h.end(), {"max_load_min", "max_load_max", "total_seconds",
                     "balls_per_sec"});
  if (spec.model == ExecModel::kWire) {
    for (const WireField& f : wire_fields(spec, {})) h.push_back(f.name);
  }
  return h;
}

std::vector<std::string> scenario_csv_row(const RunReport& report) {
  const Scenario& sc = report.spec;
  std::vector<std::string> row = {
      std::string(to_string(sc.space)),
      std::string(to_string(sc.engine)),
      std::to_string(sc.num_servers),
      std::to_string(sc.balls()),
      std::to_string(sc.num_choices),
      std::string(core::to_string(sc.tie)),
      std::string(core::to_string(sc.scheme)),
      std::to_string(sc.trials),
      std::to_string(sc.seed),
      std::to_string(sc.threads),
      std::to_string(sc.torus_dims),
      format_double(sc.zipf_alpha),
      std::to_string(sc.measure_samples),
      format_double(report.max_load.mean()),
  };
  for (const double v : report.quantile_values) row.push_back(format_double(v));
  row.push_back(std::to_string(report.max_load.min_value()));
  row.push_back(std::to_string(report.max_load.max_value()));
  row.push_back(format_double(report.total_seconds));
  row.push_back(format_double(report.balls_per_sec));
  if (sc.model == ExecModel::kWire) {
    for (WireField& f : wire_fields(sc, report.wire)) {
      row.push_back(std::move(f.value));
    }
  }
  return row;
}

std::string scenario_json(const RunReport& report) {
  const Scenario& sc = report.spec;
  std::string json = "{\n";
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "  \"spec\": {\"space\": \"%s\", \"engine\": \"%s\", \"n\": %llu, "
      "\"m\": %llu, \"d\": %d, \"tie\": \"%s\", \"scheme\": \"%s\", "
      "\"trials\": %llu, \"seed\": %llu, \"threads\": %zu, \"dims\": %d, "
      "\"alpha\": %s, \"measure_samples\": %llu},\n",
      std::string(to_string(sc.space)).c_str(),
      std::string(to_string(sc.engine)).c_str(),
      static_cast<unsigned long long>(sc.num_servers),
      static_cast<unsigned long long>(sc.balls()), sc.num_choices,
      std::string(core::to_string(sc.tie)).c_str(),
      std::string(core::to_string(sc.scheme)).c_str(),
      static_cast<unsigned long long>(sc.trials),
      static_cast<unsigned long long>(sc.seed), sc.threads, sc.torus_dims,
      format_double(sc.zipf_alpha).c_str(),
      static_cast<unsigned long long>(sc.measure_samples));
  json += buf;
  if (report.wire.present) {
    json += "  \"wire\": {";
    const char* sep = "";
    for (const WireField& f : wire_fields(sc, report.wire)) {
      json += sep;
      json += "\"" + std::string(f.name) + "\": ";
      json += f.text ? "\"" + f.value + "\"" : f.value;
      sep = ", ";
    }
    json += "},\n";
  }
  if (!report.metrics.empty()) {
    json += "  \"metrics\": {";
    bool first = true;
    for (const obs::MetricValue& m : report.metrics) {
      if (!first) json += ", ";
      first = false;
      if (m.kind == obs::MetricKind::kCounter) {
        std::snprintf(buf, sizeof(buf), "\"%s\": %llu", m.name.c_str(),
                      static_cast<unsigned long long>(m.count));
      } else {
        // Gauges and histograms both reduce to {count, value}: the last
        // written value resp. the observation sum.
        std::snprintf(buf, sizeof(buf),
                      "\"%s\": {\"count\": %llu, \"value\": %s}",
                      m.name.c_str(),
                      static_cast<unsigned long long>(m.count),
                      format_double(m.value).c_str());
      }
      json += buf;
    }
    json += "},\n";
  }
  std::snprintf(buf, sizeof(buf),
                "  \"mean_max_load\": %s,\n  \"max_load_min\": %llu,\n"
                "  \"max_load_max\": %llu,\n",
                format_double(report.max_load.mean()).c_str(),
                static_cast<unsigned long long>(report.max_load.min_value()),
                static_cast<unsigned long long>(report.max_load.max_value()));
  json += buf;
  json += "  \"quantiles\": {";
  for (std::size_t i = 0; i < report.quantile_values.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + quantile_label(sc.quantiles[i]) +
            "\": " + format_double(report.quantile_values[i]);
  }
  json += "},\n";
  std::snprintf(buf, sizeof(buf),
                "  \"total_seconds\": %s,\n  \"trial_seconds_mean\": %s,\n"
                "  \"balls_per_sec\": %s\n}\n",
                format_double(report.total_seconds).c_str(),
                format_double(report.trial_seconds_mean).c_str(),
                format_double(report.balls_per_sec).c_str());
  json += buf;
  return json;
}

}  // namespace geochoice::sim
