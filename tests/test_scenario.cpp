// Tests for the sim::Scenario front door: the engine-equivalence matrix
// (scalar / batched / sharded bit-identical through the façade for
// deterministic tie-breaks, batched / sharded for random ones, on every
// space), kAuto resolution, validation of unrunnable specs and flags,
// resolved-spec echo, and the CSV/JSON reporting helpers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <system_error>
#include <string>
#include <thread>
#include <vector>

#include "net/simulator.hpp"
#include "sim/cli.hpp"
#include "sim/scenario.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;
namespace gn = geochoice::net;

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
        const auto other = gm::run(small_scenario(space, tie, engine));
        EXPECT_EQ(scalar.max_load, other.max_load)
            << "space=" << gm::to_string(space)
            << " engine=" << gm::to_string(engine)
            << " tie=" << gc::to_string(tie);
      }
    }
  }
}

// kRandom is equal in distribution, not bit-equal, between the scalar
// and batched engines (the batched engine draws its ties from a substream
// split off up front) — but every engine must still run every space,
// produce one histogram entry per trial, and stay within the coarse
// max-load band the theory fixes at this size. The sharded engine is the
// batched one on a pool, so their histograms are bit-identical.
TEST(ScenarioMatrix, AllEnginesRunAllSpacesWithRandomTies) {
  for (const auto space : kAllSpaces) {
    geochoice::stats::IntHistogram batched;
    for (const auto engine :
         {gm::Engine::kScalar, gm::Engine::kBatched, gm::Engine::kSharded}) {
      const auto r = gm::run(small_scenario(space, gc::TieBreak::kRandom,
                                            engine));
      if (engine == gm::Engine::kBatched) batched = r.max_load;
      if (engine == gm::Engine::kSharded) {
        EXPECT_EQ(r.max_load, batched) << "space=" << gm::to_string(space);
      }
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
  EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kSharded);

  // One or two huge trials run on the in-trial pool, on either space.
  for (const auto space : {gm::SpaceKind::kRing, gm::SpaceKind::kTorus}) {
    sc.space = space;
    sc.trials = 2;
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kSharded);
    sc.trials = 3;  // the trial pool runs them side by side instead
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
    sc.trials = 1;
    sc.num_balls = (1ull << 22) - 1;
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
    sc.num_balls = 1ull << 22;
    sc.threads = 2;  // the pool needs cores
    EXPECT_EQ(gm::resolve_engine(sc), gm::Engine::kBatched);
    sc.threads = 8;
  }

  // Uniform has no owner lookup to batch; the non-bulk spaces have no
  // kernels — scalar regardless of size.
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

// --d, --dims and --window narrow to int / int / uint32_t: a value past
// the type's maximum is rejected, not wrapped into a different run
// (4294967298 would otherwise run as d = 2).
TEST(Scenario, FromArgsRejectsOutOfRangeIntegers) {
  for (const char* flag : {"--d=4294967298", "--dims=2147483648",
                           "--window=4294967297"}) {
    const std::vector<const char*> argv = {"prog", flag};
    const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
    EXPECT_THROW((void)gm::scenario_from_args(args), std::invalid_argument)
        << flag;
  }
  const std::vector<const char*> argv = {"prog", "--d=2147483647",
                                         "--window=4294967295"};
  const gm::ArgParser args(static_cast<int>(argv.size()), argv.data());
  const auto sc = gm::scenario_from_args(args);
  EXPECT_EQ(sc.num_choices, 2147483647);
  EXPECT_EQ(sc.window, 4294967295u);
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

/// The NetConfig trial `trial` of a kSim wire scenario runs.
gn::NetConfig net_config(const gm::Scenario& sc, std::uint64_t trial) {
  gn::NetConfig cfg;
  cfg.nodes = sc.num_servers;
  cfg.keys = sc.balls();
  cfg.choices = sc.num_choices;
  cfg.window = sc.window;
  cfg.tie = sc.tie;
  cfg.latency = sc.latency;
  cfg.lookups = sc.lookups;
  cfg.seed = sc.seed;
  cfg.trial = trial;
  return cfg;
}

}  // namespace

// A kSim run is NetSimulator::simulate of the same NetConfig, trial by
// trial: the histogram holds each trial's max load, and the wire metrics
// sum the trials' in trial order.
TEST(ScenarioWire, SimPathEqualsNetSimulatorTrialByTrial) {
  const auto sc = wire_scenario();
  const auto report = gm::run(sc);
  ASSERT_TRUE(report.wire.present);

  geochoice::stats::IntHistogram max_load;
  double mean_lookup_hops = 0.0;
  std::uint64_t inserts = 0, stale = 0, links = 0;
  for (std::uint64_t t = 0; t < sc.trials; ++t) {
    const auto m = gn::NetSimulator::simulate(net_config(sc, t));
    max_load.add(m.client.max_load);
    mean_lookup_hops +=
        m.client.lookup_hops.mean() / static_cast<double>(sc.trials);
    inserts += m.client.inserts;
    stale += m.nodes.stale_reads;
    for (const auto k : {gn::MsgType::kProbe, gn::MsgType::kProbeReply,
                         gn::MsgType::kPlace, gn::MsgType::kPlaceAck}) {
      links += m.nodes.links.by_type[static_cast<std::size_t>(k)];
    }
  }
  const auto per_insert = [&](std::uint64_t v) {
    return static_cast<double>(v) / static_cast<double>(inserts);
  };
  EXPECT_EQ(report.max_load, max_load);
  EXPECT_DOUBLE_EQ(report.wire.stale_fraction, per_insert(stale));
  EXPECT_DOUBLE_EQ(report.wire.mean_lookup_hops, mean_lookup_hops);
  EXPECT_DOUBLE_EQ(report.wire.links_per_insert, per_insert(links));
}

// Simulated trials are timed one by one, like structural ones: the
// report's range is real, and total_seconds is their sum.
TEST(ScenarioWire, SimTrialsAreTimedOneByOne) {
  auto sc = wire_scenario();
  sc.trials = 8;
  const auto r = gm::run(sc);
  EXPECT_LE(r.trial_seconds_min, r.trial_seconds_mean);
  EXPECT_LE(r.trial_seconds_mean, r.trial_seconds_max);
  EXPECT_LT(r.trial_seconds_min, r.trial_seconds_max);
  EXPECT_NEAR(r.total_seconds, 8.0 * r.trial_seconds_mean,
              1e-9 * r.total_seconds);
}

// Links that outlast the client's 50 ms alarm (NetSim.
// RetransmitsWhenLinksOutlastTheAlarm's delays) make it resend, and the
// report counts the resends, as it does over UDP.
TEST(ScenarioWire, SimReportsTheClientsRetransmits) {
  gm::Scenario sc;
  sc.model = gm::ExecModel::kWire;
  sc.space = gm::SpaceKind::kChordNet;
  sc.num_servers = 16;
  sc.num_balls = 64;
  sc.window = 4;
  sc.trials = 1;
  sc.latency = gn::LatencyModel::constant(60'000.0);
  const auto r = gm::run(sc);
  EXPECT_GT(r.wire.retransmits, 0u);
  EXPECT_EQ(r.wire.retransmits, r.wire.data_retransmits);
  EXPECT_EQ(r.wire.census_retries, 0u);
  EXPECT_NE(gm::render_run_summary(r).find("retransmits"), std::string::npos);
}

// A wire spec's CSV carries the wire block of its JSON, column for field.
TEST(ScenarioWire, CsvAddsTheWireColumns) {
  const auto r = gm::run(wire_scenario());
  const auto header = gm::scenario_csv_header(r.spec);
  const auto row = gm::scenario_csv_row(r);
  ASSERT_EQ(header.size(), row.size());
  const auto column = [&](const std::string& name) -> std::string {
    for (std::size_t i = 0; i < header.size(); ++i) {
      if (header[i] == name) return row[i];
    }
    ADD_FAILURE() << "no column " << name;
    return "";
  };
  EXPECT_EQ(column("transport"), "sim");
  EXPECT_EQ(column("latency"), "constant");
  EXPECT_EQ(column("window"), "4");
  EXPECT_EQ(column("lookups"), "64");
  EXPECT_EQ(column("retransmits"), "0");
  EXPECT_NEAR(std::stod(column("stale_fraction")), r.wire.stale_fraction,
              1e-6);
  // Every field both transports fill has a column (six significant
  // digits), the hop and p50 ones included.
  const auto expect_column = [&](const std::string& name, double want) {
    EXPECT_GT(want, 0.0) << name;
    EXPECT_NEAR(std::stod(column(name)), want, 1e-5 * want) << name;
  };
  expect_column("probe_hops_per_insert", r.wire.probe_hops_per_insert);
  expect_column("insert_latency_p50", r.wire.insert_latency_p50);
  expect_column("insert_latency_p90", r.wire.insert_latency_p90);
  expect_column("mean_lookup_hops", r.wire.mean_lookup_hops);
  expect_column("lookup_hops_p50", r.wire.lookup_hops_p50);
  expect_column("lookup_hops_p90", r.wire.lookup_hops_p90);
  expect_column("lookup_latency_p50", r.wire.lookup_latency_p50);
  expect_column("lookup_latency_p90", r.wire.lookup_latency_p90);
  expect_column("lookup_latency_p99", r.wire.lookup_latency_p99);
  expect_column("mean_end_time", r.wire.mean_end_time);
  // The structural columns come first, then one per key of the JSON's
  // wire block.
  const auto structural = gm::scenario_csv_header(gm::Scenario{});
  ASSERT_EQ(header.size() - structural.size(), 25u);
  EXPECT_TRUE(std::equal(structural.begin(), structural.end(),
                         header.begin()));
  // The JSON's wire block holds the same value under the same name, quoted
  // for the text fields.
  const std::string json = gm::scenario_json(r);
  for (std::size_t i = structural.size(); i < header.size(); ++i) {
    const std::string key = "\"" + header[i] + "\": ";
    EXPECT_TRUE(json.find(key + row[i]) != std::string::npos ||
                json.find(key + "\"" + row[i] + "\"") != std::string::npos)
        << header[i] << " = " << row[i];
  }
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
  // The client measures the same routes on both transports.
  EXPECT_DOUBLE_EQ(real.wire.mean_lookup_hops, oracle.wire.mean_lookup_hops);
  EXPECT_DOUBLE_EQ(real.wire.lookup_hops_p99, oracle.wire.lookup_hops_p99);
  EXPECT_DOUBLE_EQ(real.wire.probe_hops_per_insert,
                   oracle.wire.probe_hops_per_insert);
  // Both count the insert kinds' sends; the cluster's also hold the
  // closing census, which the simulator stops before: per trial, a probe
  // per node routed from the client (its send plus at most n - 1
  // forwards, each to a node not yet visited) and the reply. Resends add
  // at most d probes or one place, each answered.
  const double n = static_cast<double>(sc.num_servers);
  const double trials = static_cast<double>(sc.trials);
  const double resent = 2.0 * sc.num_choices *
                        static_cast<double>(real.wire.retransmits);
  const double extra =
      (real.wire.links_per_insert - oracle.wire.links_per_insert) *
      static_cast<double>(sc.num_balls) * trials;
  EXPECT_GE(extra, 2.0 * n * trials - 1e-9);
  EXPECT_LE(extra, n * (n + 1.0) * trials + resent + 1e-9);
}

// Both transports publish one obs name set, net.*, and on the same
// serialized, zero-latency spec they count the same workload.
TEST(ScenarioWire, BothTransportsPublishOneObsNameSet) {
  gm::Scenario sc;
  sc.model = gm::ExecModel::kWire;
  sc.space = gm::SpaceKind::kChordNet;
  sc.num_servers = 5;
  sc.num_balls = 256;
  sc.window = 1;
  sc.tie = gc::TieBreak::kFirstChoice;
  sc.latency = gn::LatencyModel::zero();
  sc.lookups = 64;
  sc.trials = 2;
  sc.obs = true;

  auto udp = sc;
  udp.transport = gm::WireTransport::kUdp;
  gm::RunReport real;
  try {
    real = gm::run(udp);
  } catch (const std::system_error& e) {
    GTEST_SKIP() << "UDP loopback unavailable: " << e.what();
  }
  gm::RunReport simulated = gm::run(sc);

  // A counter's total, or -1 when the run published no such name.
  const auto count = [](const gm::RunReport& r, const std::string& name) {
    for (const auto& m : r.metrics) {
      if (m.name == name) return static_cast<std::int64_t>(m.count);
    }
    return std::int64_t{-1};
  };
  for (const gm::RunReport* r : {&real, &simulated}) {
    for (const auto& m : r->metrics) {
      EXPECT_NE(m.name.rfind("cluster.", 0), 0u) << m.name;
    }
  }
  for (const char* name :
       {"net.inserts", "net.lookups", "net.probe_hops", "net.stale_reads"}) {
    EXPECT_EQ(count(real, name), count(simulated, name)) << name;
  }
  if (geochoice::obs::compiled_in()) {
    EXPECT_EQ(count(simulated, "net.inserts"), 512);
    EXPECT_EQ(count(simulated, "net.lookups"), 128);
    EXPECT_EQ(count(simulated, "net.stale_reads"), 0);
  }
}
