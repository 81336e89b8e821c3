// Tests for the sim::Scenario front door: the engine-equivalence matrix
// (scalar / batched / sharded bit-identical through the façade for
// deterministic tie-breaks, across every applicable space), kAuto
// resolution, validation of unsupported engine × space combinations,
// resolved-spec echo, and the CSV/JSON reporting helpers.
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <system_error>
#include <string>
#include <thread>
#include <vector>

#include "sim/cli.hpp"
#include "sim/experiment.hpp"
#include "sim/net_experiment.hpp"
#include "sim/scenario.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

namespace {

constexpr gm::SpaceKind kAllSpaces[] = {
    gm::SpaceKind::kRing,     gm::SpaceKind::kTorus,
    gm::SpaceKind::kUniform,  gm::SpaceKind::kTorusNd,
    gm::SpaceKind::kWeighted, gm::SpaceKind::kChordNet,
};

gm::Scenario small_scenario(gm::SpaceKind space, gc::TieBreak tie,
                            gm::Engine engine) {
  gm::Scenario sc;
  sc.space = space;
  sc.engine = engine;
  sc.num_servers = 96;
  sc.num_balls = 192;
  sc.num_choices = 2;
  sc.tie = tie;
  sc.trials = 6;
  sc.seed = 0x5eed;
  sc.torus_dims = 3;
  sc.measure_samples = 2048;  // keep the torus-nd estimate cheap
  return sc;
}

}  // namespace

// ------------------------------------------------- engine-equivalence matrix

// The heart of the façade contract: for deterministic tie-breaks every
// engine consumes the same trial streams, so the max-load histogram is
// bit-identical engine-to-engine — across the full space matrix, not
// just the pairwise pins in test_batch_process / test_sharded_process.
TEST(ScenarioMatrix, EnginesBitIdenticalForDeterministicTies) {
  for (const auto space : kAllSpaces) {
    for (const auto tie :
         {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex,
          gc::TieBreak::kSmallerRegion, gc::TieBreak::kLargerRegion}) {
      const auto scalar =
          gm::run(small_scenario(space, tie, gm::Engine::kScalar));
      ASSERT_EQ(scalar.max_load.total(), 6u);
      for (const auto engine : {gm::Engine::kBatched, gm::Engine::kSharded}) {
        if (!gm::engine_supports(engine, space)) continue;
        const auto other = gm::run(small_scenario(space, tie, engine));
        EXPECT_EQ(scalar.max_load, other.max_load)
            << "space=" << gm::to_string(space)
            << " engine=" << gm::to_string(engine)
            << " tie=" << gc::to_string(tie);
      }
    }
  }
}

// kRandom is equal in distribution, not bit-equal (the batched engine
// interleaves tie draws at block boundaries; the sharded engine splits
// off a tie substream) — but every engine must still run every space,
// produce one histogram entry per trial, and stay within the coarse
// max-load band the theory fixes at this size.
TEST(ScenarioMatrix, AllEnginesRunAllSpacesWithRandomTies) {
  for (const auto space : kAllSpaces) {
    for (const auto engine :
         {gm::Engine::kScalar, gm::Engine::kBatched, gm::Engine::kSharded}) {
      if (!gm::engine_supports(engine, space)) continue;
      const auto r = gm::run(small_scenario(space, gc::TieBreak::kRandom,
                                            engine));
      EXPECT_EQ(r.max_load.total(), 6u);
      EXPECT_GE(r.max_load.min_value(), 2u);
      // Zipf weights (alpha = 1) are deliberately skewed: two choices
      // bound the max load but at a higher constant than the
      // near-uniform geometric spaces.
      const std::uint64_t cap = space == gm::SpaceKind::kWeighted ? 24 : 12;
      EXPECT_LE(r.max_load.max_value(), cap)
          << "space=" << gm::to_string(space)
          << " engine=" << gm::to_string(engine);
    }
  }
}

TEST(ScenarioMatrix, ThreadCountInvariance) {
  for (const auto engine :
       {gm::Engine::kScalar, gm::Engine::kBatched, gm::Engine::kSharded}) {
    auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                             engine);
    sc.threads = 1;
    const auto h1 = gm::run(sc).max_load;
    sc.threads = 4;
    const auto h4 = gm::run(sc).max_load;
    EXPECT_EQ(h1, h4) << "engine=" << gm::to_string(engine);
  }
}

// --------------------------------------------------------------- validation

TEST(Scenario, ShardedOnNonShardableSpaceThrows) {
  for (const auto space : {gm::SpaceKind::kTorusNd, gm::SpaceKind::kWeighted,
                           gm::SpaceKind::kChordNet}) {
    EXPECT_FALSE(gm::engine_supports(gm::Engine::kSharded, space));
    EXPECT_THROW((void)gm::run(small_scenario(space, gc::TieBreak::kRandom,
                                              gm::Engine::kSharded)),
                 std::invalid_argument);
  }
}

TEST(Scenario, RejectsUnrunnableSpecsUpFront) {
  auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                           gm::Engine::kScalar);
  sc.trials = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.num_servers = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.num_choices = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kUniform, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.scheme = gc::ChoiceScheme::kPartitioned;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kTorusNd, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.torus_dims = 5;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                      gm::Engine::kScalar);
  sc.quantiles = {0.5, 1.5};
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
}

TEST(Scenario, PartitionedSchemeRunsOnRingLikeSpaces) {
  for (const auto space : {gm::SpaceKind::kRing, gm::SpaceKind::kChordNet}) {
    auto sc = small_scenario(space, gc::TieBreak::kFirstChoice,
                             gm::Engine::kScalar);
    sc.scheme = gc::ChoiceScheme::kPartitioned;
    const auto scalar = gm::run(sc);
    EXPECT_EQ(scalar.max_load.total(), 6u);
    sc.engine = gm::Engine::kBatched;
    EXPECT_EQ(gm::run(sc).max_load, scalar.max_load);
  }
}

// ------------------------------------------------------------ kAuto + echo

TEST(Scenario, AutoResolutionRules) {
  gm::Scenario sc;
  sc.engine = gm::Engine::kAuto;
  sc.threads = 8;  // pin so the rule does not depend on this host

  sc.space = gm::SpaceKind::kRing;
  sc.num_servers = 256;  // m = n = 256 < 4096
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kScalar);
  sc.num_balls = 1 << 14;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
  sc.num_balls = 1ull << 22;
  sc.trials = 1;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);  // ring never shards

  // The torus shards a single huge trial.
  sc.space = gm::SpaceKind::kTorus;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kSharded);
  sc.trials = 2;  // the trial pool runs them side by side instead
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
  sc.trials = 1;
  sc.num_balls = (1ull << 22) - 1;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
  sc.num_balls = 1ull << 22;
  sc.threads = 2;  // sharding needs cores
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);

  // Uniform has no owner lookup to batch; the non-bulk spaces have no
  // kernels — scalar regardless of size.
  sc.threads = 8;
  for (const auto space : {gm::SpaceKind::kUniform, gm::SpaceKind::kTorusNd,
                           gm::SpaceKind::kWeighted,
                           gm::SpaceKind::kChordNet}) {
    sc.space = space;
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kScalar);
  }

  // Explicit engines pass through untouched.
  sc.engine = gm::Engine::kBatched;
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
}

TEST(Scenario, ReportEchoesResolvedSpec) {
  auto sc = small_scenario(gm::SpaceKind::kRing, gc::TieBreak::kRandom,
                           gm::Engine::kAuto);
  sc.num_balls = 0;  // m = n
  sc.threads = 2;
  const auto r = gm::run(sc);
  EXPECT_NE(r.spec.engine, gm::Engine::kAuto);
  EXPECT_EQ(r.spec.engine, gm::resolve_engine(sc));
  EXPECT_EQ(r.spec.num_balls, sc.num_servers);
  EXPECT_EQ(r.spec.threads, 2u);
  // Rerunning the resolved spec reproduces the run bit-for-bit.
  EXPECT_EQ(gm::run(r.spec).max_load, r.max_load);
}

TEST(Scenario, QuantilesTrackTheHistogram) {
  auto sc = small_scenario(gm::SpaceKind::kUniform, gc::TieBreak::kRandom,
                           gm::Engine::kScalar);
  sc.trials = 50;
  const auto r = gm::run(sc);
  ASSERT_EQ(r.quantile_values.size(), sc.quantiles.size());
  // Exact by construction: every per-trial outcome is in the histogram.
  for (std::size_t i = 0; i < sc.quantiles.size(); ++i) {
    EXPECT_DOUBLE_EQ(
        r.quantile_values[i],
        static_cast<double>(r.max_load.quantile(sc.quantiles[i])));
  }
  EXPECT_LE(r.quantile_values[0], r.quantile_values[1]);
  EXPECT_LE(r.quantile_values[1], r.quantile_values[2]);
  EXPECT_GT(r.total_seconds, 0.0);
  EXPECT_GT(r.balls_per_sec, 0.0);
  EXPECT_LE(r.trial_seconds_min, r.trial_seconds_mean);
  EXPECT_LE(r.trial_seconds_mean, r.trial_seconds_max);
}

// ------------------------------------------------------- args + reporting

TEST(Scenario, FromArgsParsesEveryFlagOverDefaults) {
  const std::vector<const char*> argv = {
      "prog",          "--space=weighted", "--engine=batched",
      "--n=512",       "--m=1024",         "--d=3",
      "--tie=smaller", "--trials=9",       "--seed=77",
      "--threads=2",   "--alpha=1.25"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  const auto sc = gm::scenario_from_args(args);
  EXPECT_TRUE(args.unused().empty());
  EXPECT_EQ(sc.space, gm::SpaceKind::kWeighted);
  EXPECT_EQ(sc.engine, gm::Engine::kBatched);
  EXPECT_EQ(sc.num_servers, 512u);
  EXPECT_EQ(sc.num_balls, 1024u);
  EXPECT_EQ(sc.num_choices, 3);
  EXPECT_EQ(sc.tie, gc::TieBreak::kSmallerRegion);
  EXPECT_EQ(sc.trials, 9u);
  EXPECT_EQ(sc.seed, 77u);
  EXPECT_EQ(sc.threads, 2u);
  EXPECT_DOUBLE_EQ(sc.zipf_alpha, 1.25);
}

TEST(Scenario, FromArgsKeepsDefaultsAndTakesListFront) {
  const std::vector<const char*> argv = {"prog", "--n=256,4096,65536"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  gm::Scenario defaults;
  defaults.trials = 33;
  defaults.tie = gc::TieBreak::kFirstChoice;
  const auto sc = gm::scenario_from_args(args, defaults);
  EXPECT_EQ(sc.num_servers, 256u);  // sweep binaries read the full list
  EXPECT_EQ(sc.trials, 33u);
  EXPECT_EQ(sc.tie, gc::TieBreak::kFirstChoice);
  EXPECT_EQ(sc.engine, gm::Engine::kAuto);
}

TEST(Scenario, StringRoundTrips) {
  for (const auto space : kAllSpaces) {
    EXPECT_EQ(gm::space_kind_from_string(std::string(gm::to_string(space))),
              space);
  }
  for (const auto engine : {gm::Engine::kScalar, gm::Engine::kBatched,
                            gm::Engine::kSharded, gm::Engine::kAuto}) {
    EXPECT_EQ(gm::engine_from_string(std::string(gm::to_string(engine))),
              engine);
  }
  EXPECT_THROW((void)gm::space_kind_from_string("plane"),
               std::invalid_argument);
  EXPECT_THROW((void)gm::engine_from_string("warp"), std::invalid_argument);
}

TEST(Scenario, CsvAndJsonEchoTheResolvedSpec) {
  const auto r = gm::run(small_scenario(gm::SpaceKind::kRing,
                                        gc::TieBreak::kRandom,
                                        gm::Engine::kScalar));
  const auto header = gm::scenario_csv_header(r.spec);
  const auto row = gm::scenario_csv_row(r);
  ASSERT_EQ(header.size(), row.size());
  EXPECT_EQ(row[0], "ring");
  EXPECT_EQ(row[1], "scalar");
  EXPECT_EQ(row[2], "96");

  const std::string json = gm::scenario_json(r);
  EXPECT_NE(json.find("\"space\": \"ring\""), std::string::npos);
  EXPECT_NE(json.find("\"engine\": \"scalar\""), std::string::npos);
  EXPECT_NE(json.find("\"mean_max_load\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);

  const std::string summary = gm::render_run_summary(r);
  EXPECT_NE(summary.find("space=ring"), std::string::npos);
  EXPECT_NE(summary.find("engine=scalar"), std::string::npos);
  EXPECT_NE(summary.find("distribution of max load"), std::string::npos);
}

// --------------------------------------------------------------- shim parity

TEST(Scenario, ShimEqualsFacadeWithScalarEngine) {
  gm::ExperimentConfig cfg;
  cfg.space = gm::SpaceKind::kTorus;
  cfg.num_servers = 128;
  cfg.trials = 10;
  cfg.seed = 321;
  const auto via_shim = gm::run_max_load_experiment(cfg);
  const auto via_facade = gm::run(gm::to_scenario(cfg)).max_load;
  EXPECT_EQ(via_shim, via_facade);
  EXPECT_EQ(gm::to_scenario(cfg).engine, gm::Engine::kScalar);
}

// --------------------------------------------------------------- wire model

namespace {

gm::Scenario wire_scenario() {
  gm::Scenario sc;
  sc.model = gm::ExecModel::kWire;
  sc.space = gm::SpaceKind::kChordNet;
  sc.num_servers = 64;
  sc.num_balls = 256;
  sc.window = 4;
  sc.lookups = 64;
  sc.trials = 4;
  sc.seed = 0x5eed;
  return sc;
}

}  // namespace

// The front door's kSim path IS run_net_scenario: the bridge maps every
// Scenario field onto NetScenarioConfig, so the histogram and the wire
// metrics agree bit-for-bit with a direct call.
TEST(ScenarioWire, SimPathEqualsRunNetScenario) {
  const auto sc = wire_scenario();
  const auto report = gm::run(sc);
  ASSERT_TRUE(report.wire.present);
  const auto direct = gm::run_net_scenario(gm::net_scenario_config(sc));
  EXPECT_EQ(report.max_load, direct.max_load);
  const auto r = gm::net_scenario_result(report);
  EXPECT_DOUBLE_EQ(r.stale_fraction, direct.stale_fraction);
  EXPECT_DOUBLE_EQ(r.links_per_insert, direct.links_per_insert);
  EXPECT_DOUBLE_EQ(r.insert_latency_p99, direct.insert_latency_p99);
  EXPECT_DOUBLE_EQ(r.lookup_hops_p50, direct.lookup_hops_p50);
  EXPECT_DOUBLE_EQ(r.mean_events, direct.mean_events);
}

// RunReport::spec reproduces net runs just like structural ones: rerunning
// the resolved spec is the same experiment.
TEST(ScenarioWire, SpecReproducesTheRun) {
  const auto first = gm::run(wire_scenario());
  const auto again = gm::run(first.spec);
  EXPECT_EQ(first.max_load, again.max_load);
  EXPECT_DOUBLE_EQ(first.wire.stale_fraction, again.wire.stale_fraction);
  EXPECT_DOUBLE_EQ(first.wire.mean_end_time, again.wire.mean_end_time);
  EXPECT_NE(first.spec.engine, gm::Engine::kAuto);  // spec stays concrete
}

// A wire run's trials go to a pool of worker threads, each trial one
// sequential NetSimulator, so the report is bit-identical at any pool
// size. Lognormal delays put the ziggurat's draws under the pool too.
TEST(ScenarioWire, ParallelWorkersAreBitIdentical) {
  auto sc = wire_scenario();
  sc.latency = geochoice::net::LatencyModel::lognormal(0.0, 0.5);
  sc.threads = 1;
  const auto sequential = gm::run(sc);
  sc.threads = 4;
  const auto parallel = gm::run(sc);
  EXPECT_EQ(sequential.max_load, parallel.max_load);
  EXPECT_DOUBLE_EQ(sequential.wire.stale_fraction,
                   parallel.wire.stale_fraction);
  EXPECT_DOUBLE_EQ(sequential.wire.insert_latency_p99,
                   parallel.wire.insert_latency_p99);
  EXPECT_DOUBLE_EQ(sequential.wire.links_per_insert,
                   parallel.wire.links_per_insert);
  EXPECT_DOUBLE_EQ(sequential.wire.mean_end_time,
                   parallel.wire.mean_end_time);
}

// run() resolves the worker-thread count before the trials start and
// echoes it, with the in-trial workers the constant 0, so rerunning the
// spec reproduces the run on any host.
TEST(ScenarioWire, ReportEchoesResolvedWorkers) {
  auto sc = wire_scenario();
  sc.engine = gm::Engine::kAuto;
  sc.threads = 0;  // hardware concurrency
  const auto report = gm::run(sc);
  const unsigned hw = std::thread::hardware_concurrency();
  EXPECT_EQ(report.spec.threads, hw == 0 ? 1u : hw);
  EXPECT_EQ(report.spec.workers, 0u);
  EXPECT_NE(report.spec.engine, gm::Engine::kAuto);
  const auto again = gm::run(report.spec);
  EXPECT_EQ(report.max_load, again.max_load);
  EXPECT_DOUBLE_EQ(report.wire.stale_fraction, again.wire.stale_fraction);
}

TEST(ScenarioWire, ValidatesWireSpecs) {
  {
    auto sc = wire_scenario();
    sc.space = gm::SpaceKind::kRing;  // the protocol routes on Chord
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.scheme = gc::ChoiceScheme::kPartitioned;
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.tie = gc::TieBreak::kSmallerRegion;  // needs arc sizes on the wire
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.window = 0;
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.latency = geochoice::net::LatencyModel::constant(
        std::numeric_limits<double>::quiet_NaN());
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
  {
    auto sc = wire_scenario();
    sc.latency = geochoice::net::LatencyModel::lognormal(
        0.0, std::numeric_limits<double>::infinity());
    EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
  }
}

TEST(ScenarioWire, FromArgsParsesWireFlags) {
  const std::vector<const char*> argv = {
      "prog",           "--space=chord",       "--model=wire",
      "--transport=udp", "--latency=lognormal", "--lat-a=0.25",
      "--lat-b=0.75",   "--window=16",         "--lookups=512",
      "--workers=3"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  const auto sc = gm::scenario_from_args(args);
  EXPECT_EQ(sc.model, gm::ExecModel::kWire);
  EXPECT_EQ(sc.transport, gm::WireTransport::kUdp);
  EXPECT_EQ(sc.latency.kind, geochoice::net::LatencyKind::kLognormal);
  EXPECT_DOUBLE_EQ(sc.latency.a, 0.25);
  EXPECT_DOUBLE_EQ(sc.latency.b, 0.75);
  EXPECT_EQ(sc.window, 16u);
  EXPECT_EQ(sc.lookups, 512u);
  // A trial runs on one sequential engine: --workers is not a scenario
  // flag, so it is left over for the binary to reject as unknown.
  EXPECT_EQ(args.unused(), std::vector<std::string>{"workers"});

  for (const auto m : {gm::ExecModel::kStructural, gm::ExecModel::kWire}) {
    EXPECT_EQ(gm::exec_model_from_string(std::string(gm::to_string(m))), m);
  }
  for (const auto t : {gm::WireTransport::kSim, gm::WireTransport::kUdp}) {
    EXPECT_EQ(gm::wire_transport_from_string(std::string(gm::to_string(t))),
              t);
  }
  EXPECT_THROW((void)gm::exec_model_from_string("psychic"),
               std::invalid_argument);
  EXPECT_THROW((void)gm::wire_transport_from_string("tcp"),
               std::invalid_argument);
}

// The kUdp transport under a serialized window and a deterministic tie is
// the same allocation the simulator computes: placements depend only on
// the shared candidate stream and the serial load evolution, so the
// max-load histogram bit-matches the zero-latency kSim run.
TEST(ScenarioWire, UdpMaxLoadMatchesTheSimulatorOracle) {
  gm::Scenario sc;
  sc.model = gm::ExecModel::kWire;
  sc.space = gm::SpaceKind::kChordNet;
  sc.num_servers = 3;
  sc.num_balls = 48;
  sc.window = 1;
  sc.tie = gc::TieBreak::kFirstChoice;
  sc.lookups = 8;
  sc.trials = 2;
  sc.seed = 0x636c7573746572;

  auto udp = sc;
  udp.transport = gm::WireTransport::kUdp;
  gm::RunReport real;
  try {
    real = gm::run(udp);
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }

  auto simulated = sc;
  simulated.latency = geochoice::net::LatencyModel::zero();
  const auto oracle = gm::run(simulated);

  EXPECT_EQ(real.max_load, oracle.max_load);
  EXPECT_EQ(real.wire.malformed, 0u);
  EXPECT_GT(real.wire.datagrams, 0u);
}
