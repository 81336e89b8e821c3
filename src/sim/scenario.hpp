// scenario.hpp — the one front door of the simulation harness.
//
// A sim::Scenario declares a complete max-load experiment — which space,
// which engine, n/m/d, tie-break, trials, seed, reporting knobs — and
// sim::run(scenario) executes it and returns a RunReport. The same spec
// reaches every engine (scalar, batched, and batched on a thread pool) on
// all six spaces (ring, torus, n-d torus, uniform, weighted, Chord
// successor ownership), so a new workload is a field value, not a new
// binary with its own engine × space switch.
//
// Determinism contract (inherited from the engines):
//   * Trial t builds its space from the (seed, t, kServerPlacement)
//     substream and runs balls on (seed, t, kBallChoices), so the scalar
//     engine reproduces every pinned golden histogram.
//   * For deterministic tie-breaks (kFirstChoice, kLowestIndex, the
//     region strategies) every engine consumes the ball stream
//     identically, so RunReport::max_load is bit-identical across
//     engines (pinned by tests/test_scenario.cpp's equivalence matrix).
//     Under TieBreak::kRandom kBatched and kSharded are bit-identical, and
//     equal to kScalar in distribution.
//   * Results are invariant to thread count for every engine.
//
// Engine::kAuto picks by space capability, ball count, trial count, and
// available threads (see resolve_engine); the chosen engine is echoed in
// RunReport::spec, so a report is always reproducible by rerunning its
// own resolved spec with an explicit engine.
//
// Beyond the structural engines, a Scenario can select the *wire*
// execution model (ExecModel::kWire): the same (n, m, d, tie) experiment
// run through the message-level Chord simulator — or, with
// transport = kUdp, against a real in-process localhost UDP cluster —
// reporting per-message hop/latency/staleness metrics next to the
// max-load distribution. The net fields (latency, window, lookups,
// transport) live in the spec, so RunReport::spec reproduces net runs
// exactly like structural ones. Both transports run the same per-trial
// function and one aggregation fills RunReport::wire. A trial is
// sequential (one NetSimulator, or one cluster pumped from one thread);
// sim-transport trials run in parallel, udp ones one after another.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "core/process.hpp"
#include "net/latency.hpp"
#include "obs/registry.hpp"
#include "stats/histogram.hpp"

namespace geochoice::sim {

class ArgParser;

enum class SpaceKind {
  kRing,      // arcs on the circle (Table 1, Table 3)
  kTorus,     // Voronoi cells on the unit torus (Table 2)
  kUniform,   // classic equiprobable bins (Azar et al. baseline)
  kTorusNd,   // nearest-neighbor cells on the unit D-torus (Section 3)
  kWeighted,  // fixed bin probabilities (Zipf stress test)
  kChordNet,  // Chord successor ownership (net::ChordSuccessorSpace)
};

enum class Engine {
  kScalar,   // core::run_process — the reference oracle
  kBatched,  // core::run_batch_process — sample/resolve/place blocks
  kSharded,  // core::run_batch_process on the run's thread pool: one
             // trial at a time, each block's owners resolved in parallel
  kAuto,     // pick by space + m + trials + threads (resolve_engine)
};

/// How the experiment executes: structurally (the allocation engines walk
/// owner lookups in memory) or over the wire (every probe, reply, and
/// placement is a routed message with latency, staleness, and loss —
/// Section 4's deployed-DHT questions).
enum class ExecModel {
  kStructural,  // scalar / batched / sharded engines (the default)
  kWire,        // message-level Chord protocol runs
};

/// Which wire carries a kWire run's messages.
enum class WireTransport {
  kSim,  // deterministic event-queue simulation (NetSimulator family)
  kUdp,  // real datagrams: in-process localhost UDP cluster (net/cluster.hpp)
};

[[nodiscard]] std::string_view to_string(SpaceKind k) noexcept;
[[nodiscard]] SpaceKind space_kind_from_string(std::string_view name);
[[nodiscard]] std::string_view to_string(Engine e) noexcept;
[[nodiscard]] Engine engine_from_string(std::string_view name);
[[nodiscard]] std::string_view to_string(ExecModel m) noexcept;
[[nodiscard]] ExecModel exec_model_from_string(std::string_view name);
[[nodiscard]] std::string_view to_string(WireTransport t) noexcept;
[[nodiscard]] WireTransport wire_transport_from_string(std::string_view name);

/// Declarative experiment spec: the experiment (space, n/m/d, tie-break,
/// trials, seed, threads), the engine selector, per-space knobs, the
/// wire-model knobs and reporting options.
struct Scenario {
  SpaceKind space = SpaceKind::kRing;
  std::uint64_t num_servers = 1 << 8;  // n
  std::uint64_t num_balls = 0;         // m; 0 means m = n
  int num_choices = 2;                 // d
  core::TieBreak tie = core::TieBreak::kRandom;
  core::ChoiceScheme scheme = core::ChoiceScheme::kIndependent;
  std::uint64_t trials = 100;
  std::uint64_t seed = 0x67656f63686f6963ULL;  // "geochoic"
  std::size_t threads = 0;                     // 0 = hardware concurrency

  Engine engine = Engine::kAuto;

  /// kTorusNd: dimension D in [1, 4] (kTorus is the dedicated D = 2
  /// space with exact Voronoi areas; TorusNd estimates measures).
  int torus_dims = 3;
  /// kWeighted: Zipf exponent, bin i selected with probability
  /// proportional to 1/(i+1)^alpha.
  double zipf_alpha = 1.0;
  /// kTorusNd with a region tie-break: Monte-Carlo samples for the
  /// measure estimate; 0 means 64 * n. Drawn from the trial's server
  /// substream, so estimates are engine-independent.
  std::uint64_t measure_samples = 0;

  // ---- wire-model fields (ExecModel::kWire; ignored when structural) ----

  /// Structural runs ignore everything below. Wire runs require
  /// space == kChordNet (the protocol routes on the Chord ring) and an
  /// independent choice scheme; n/m/d/tie/trials/seed/threads keep their
  /// structural meanings.
  ExecModel model = ExecModel::kStructural;
  /// kSim replays the protocol deterministically; kUdp sends every
  /// message as a real datagram through an in-process localhost cluster.
  WireTransport transport = WireTransport::kSim;
  /// Per-hop latency model (kSim only; kUdp pays the kernel's real one).
  net::LatencyModel latency = net::LatencyModel::constant(1.0);
  /// Maximum insert operations in flight (1 = staleness-free baseline).
  std::uint32_t window = 1;
  /// Measurement lookups issued after the inserts drain.
  std::uint64_t lookups = 0;
  /// In-trial workers of a wire run: always 0, since a trial runs on one
  /// sequential NetSimulator. Kept as a read-only constant, not a field,
  /// because the benchmark's `simulate` workload (perfbench/src/
  /// simulate.cpp) checks and echoes `spec.workers`; nothing can set it.
  /// It goes once that workload stops reading it (ROADMAP's
  /// benchmark-docs item).
  static constexpr std::size_t workers = 0;

  // ---- observability (any model) ----

  /// Enable the obs registry for this run: sim::run resets it, flips the
  /// runtime toggle on, snapshots every counter into RunReport::metrics,
  /// and restores the toggle. Implied by a nonempty trace_out. Never
  /// changes results — obs consumes no RNG (pinned by the golden-hash
  /// tests).
  bool obs = false;
  /// Write a Chrome trace-event JSON (Perfetto-compatible) of trial 0's
  /// message lifecycle to this path. Wire model only — structural runs
  /// have no messages — and requires GEOCHOICE_OBS=ON at build time.
  std::string trace_out;

  /// Streaming max-load percentiles reported next to the histogram
  /// (each must lie in (0, 1)).
  std::vector<double> quantiles = {0.5, 0.9, 0.99};

  [[nodiscard]] std::uint64_t balls() const noexcept {
    return num_balls == 0 ? num_servers : num_balls;
  }
};

/// Per-message metrics a wire-model run reports next to the max-load
/// distribution, in RunReport::wire. They are read from what both
/// transports expose — the client's counts and P² sets, the nodes' loads
/// and stale reads, the per-type link counters — and aggregated over the
/// trials in trial order, so a field both transports fill means the same
/// on both, up to the clock: kSim times are simulated microseconds, kUdp
/// ones real microseconds. Percentiles are per-trial P² estimates
/// averaged over trials.
struct WireMetrics {
  bool present = false;  // true iff the report came from ExecModel::kWire
  double mean_lookup_hops = 0.0;
  double lookup_hops_p50 = 0.0;
  double lookup_hops_p90 = 0.0;
  double lookup_hops_p99 = 0.0;
  double insert_latency_p50 = 0.0;
  double insert_latency_p90 = 0.0;
  double insert_latency_p99 = 0.0;
  double lookup_latency_p50 = 0.0;
  double lookup_latency_p90 = 0.0;
  double lookup_latency_p99 = 0.0;
  /// Insert-protocol sends (probe, probe reply, place, place ack) per
  /// insert, self-addressed ones included (the client's d probes to
  /// itself among them). kUdp also counts the closing load census, whose
  /// probes and replies are of the same kinds and which the simulator
  /// stops before: a probe per node routed from the client, and its reply
  /// (27 sends on top of 2,505 at n = 8, 256 keys, window 4).
  double links_per_insert = 0.0;
  double probe_hops_per_insert = 0.0;
  /// Fraction of placements that acted on a stale load reply.
  double stale_fraction = 0.0;
  /// Delivered messages per trial (kSim only; 0 on kUdp).
  double mean_events = 0.0;
  /// When a trial stopped, in µs from its start: the workload's last
  /// reply on kSim, the census's last reply on kUdp.
  double mean_end_time = 0.0;
  /// Every protocol send (self-addressed included), summed over trials;
  /// kUdp counts the closing census too, as in links_per_insert. Then the
  /// received frames that failed to decode (kUdp only).
  std::uint64_t datagrams = 0;
  std::uint64_t malformed = 0;
  /// The client's resends after a retransmit alarm, summed over trials:
  /// retransmits is the total; data_retransmits (suspected loss on the
  /// workload path) and census_retries (read-only census re-probes, kUdp
  /// only) split it.
  std::uint64_t retransmits = 0;
  std::uint64_t data_retransmits = 0;
  std::uint64_t census_retries = 0;
};

/// Everything one run produced, plus the spec that produced it.
struct RunReport {
  /// The input spec with every deferred choice resolved: engine is
  /// concrete (never kAuto), num_balls/threads/measure_samples are
  /// explicit. Rerunning this spec reproduces max_load bit-for-bit.
  Scenario spec;

  /// Distribution of the maximum load over trials (the paper's tables).
  stats::IntHistogram max_load;

  /// Exact spec.quantiles of the per-trial max loads (read from the
  /// histogram — every trial outcome is retained, so no estimator is
  /// needed; the P² streaming machinery serves the net/ per-message
  /// metrics, where traces are not kept).
  std::vector<double> quantile_values;

  /// Wire-model metrics; wire.present is false for structural runs.
  WireMetrics wire;

  /// Registry snapshot (counters/gauges/histograms) taken at the end of
  /// the run; empty unless spec.obs (or a trace_out) turned the obs layer
  /// on. Every engine reports here: structural runs carry
  /// scenario.trials/scenario.balls, wire runs on either transport the
  /// one net.* set (net::publish).
  std::vector<obs::MetricValue> metrics;

  /// Per-trial wall timing (seconds), aggregated over trials: each trial
  /// is timed alone (space build plus engine, or one wire run), and
  /// total_seconds is the sum.
  double total_seconds = 0.0;
  double trial_seconds_min = 0.0;
  double trial_seconds_mean = 0.0;
  double trial_seconds_max = 0.0;
  /// Aggregate throughput: trials * balls / total_seconds. For parallel
  /// trial execution total_seconds is the sum of per-trial times (CPU
  /// seconds of useful work), so this is per-core throughput.
  double balls_per_sec = 0.0;

  [[nodiscard]] double mean_max_load() const noexcept {
    return max_load.mean();
  }
};

/// The engine kAuto resolves to, on the ring and the torus: kSharded (the
/// batched engine resolving each block on a pool of spec.threads workers)
/// for a lone trial of m >= 2^20, or two torus trials of m >= 2^22, when
/// >= 4 threads are available, kBatched at m >= 4096 (measured 5x / 2.3x
/// scalar), else
/// kScalar. The other spaces resolve to kScalar (uniform has no owner
/// lookup to batch; the rest have no bulk kernels). Depends on
/// hardware_concurrency only through the kSharded rule when
/// spec.threads == 0.
[[nodiscard]] Engine resolve_engine(const Scenario& sc) noexcept;

/// Execute the scenario: trials in parallel for scalar/batched and
/// sim-transport wire runs (thread-count invariant), sequential trials
/// with an intra-trial worker pool for sharded, and one after another for
/// udp-transport wire runs. Throws std::invalid_argument on unrunnable
/// specs (zero trials/servers, d < 1, partitioned sampling off the ring,
/// bad dims/quantiles, a wire run off the Chord ring or with a bad window
/// or latency model).
[[nodiscard]] RunReport run(const Scenario& sc);

/// Parse the shared scenario flags over `defaults`, so every binary
/// exposes identical names and semantics:
///   --space=ring|torus|torus-nd|uniform|weighted|chord
///   --engine=scalar|batched|sharded|auto
///   --n=N (a comma list is accepted; the first entry seeds num_servers
///          and sweep binaries read the full list themselves)
///   --m=M  --d=D  --tie=random|first|smaller|larger|lowest-index
///   --scheme=independent|partitioned  --trials=T  --seed=S
///   --threads=K  --dims=D  --alpha=A  --measure-samples=S
/// and the wire-model flags:
///   --model=structural|wire  --transport=sim|udp
///   --latency=constant|uniform|lognormal  --lat-a=A  --lat-b=B
///   --window=W  --lookups=L
/// (--d, --dims and --window must fit their fields' types, else
/// std::invalid_argument)
/// and the observability flags:
///   --obs  (bare: report registry metrics)  --trace-out=FILE (implies
///   --obs; write trial 0's Chrome trace JSON, wire model only)
[[nodiscard]] Scenario scenario_from_args(const ArgParser& args,
                                          Scenario defaults = {});

/// Human-readable report: resolved spec echo, timing, percentiles, and
/// the paper-style max-load distribution block.
[[nodiscard]] std::string render_run_summary(const RunReport& report);

/// CSV schema: full resolved-spec echo plus the max-load metrics. The
/// quantile columns mirror spec.quantiles ("p50", "p90", ...), and a
/// wire-model spec adds the wire columns scenario_json writes, so pass
/// the same spec whose reports you will write.
[[nodiscard]] std::vector<std::string> scenario_csv_header(
    const Scenario& spec);
[[nodiscard]] std::vector<std::string> scenario_csv_row(
    const RunReport& report);

/// One JSON object: resolved spec echo + metrics (same shape family as
/// the BENCH_*.json files the perf gate reads).
[[nodiscard]] std::string scenario_json(const RunReport& report);

}  // namespace geochoice::sim
