// Tests for the simulation harness: table rendering, CSV output, and the
// experiment runner's determinism. (ArgParser tests live in
// tests/test_cli.cpp; the Scenario façade is covered by
// tests/test_scenario.cpp.)
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "sim/sim.hpp"

namespace gm = geochoice::sim;
namespace gc = geochoice::core;

// --------------------------------------------------------------- table format

TEST(TableFormat, DistributionLines) {
  geochoice::stats::IntHistogram h;
  h.add(4, 70);
  h.add(3, 27);
  h.add(5, 3);
  const auto lines = gm::distribution_lines(h);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("3"), std::string::npos);
  EXPECT_NE(lines[0].find("27.0%"), std::string::npos);
  EXPECT_NE(lines[1].find("70.0%"), std::string::npos);
}

TEST(TableFormat, EmptyHistogram) {
  const auto lines = gm::distribution_lines({});
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], "(no data)");
}

TEST(TableFormat, Pow2Label) {
  EXPECT_EQ(gm::pow2_label(256), "2^8");
  EXPECT_EQ(gm::pow2_label(1 << 20), "2^20");
  EXPECT_EQ(gm::pow2_label(1000), "1000");
  EXPECT_EQ(gm::pow2_label(1), "2^0");
}

TEST(TableFormat, RenderTableContainsEverything) {
  geochoice::stats::IntHistogram h1, h2;
  h1.add(4, 100);
  h2.add(3, 60);
  h2.add(4, 40);
  std::vector<gm::TableRowBlock> rows;
  rows.push_back({"2^8", {{h1}, {h2}}});
  const std::string t =
      gm::render_table("Table X", {"d = 1", "d = 2"}, rows);
  EXPECT_NE(t.find("Table X"), std::string::npos);
  EXPECT_NE(t.find("d = 1"), std::string::npos);
  EXPECT_NE(t.find("2^8"), std::string::npos);
  EXPECT_NE(t.find("100.0%"), std::string::npos);
  EXPECT_NE(t.find("60.0%"), std::string::npos);
}

// ------------------------------------------------------------------------ CSV

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = ::testing::TempDir() + "/geochoice_test.csv";
  {
    gm::CsvWriter csv(path, {"a", "b"});
    csv.row({"1", "x,y"});
    csv.row_values({2.5, 3.0});
    EXPECT_EQ(csv.rows_written(), 2u);
    EXPECT_THROW(csv.row({"only-one"}), std::invalid_argument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
  std::getline(in, line);
  EXPECT_EQ(line, "2.5,3");
  std::remove(path.c_str());
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(gm::CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(gm::CsvWriter::escape("a,b"), "\"a,b\"");
  EXPECT_EQ(gm::CsvWriter::escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, UnopenablePathThrows) {
  EXPECT_THROW(gm::CsvWriter("/nonexistent-dir/x.csv", {"a"}),
               std::runtime_error);
}

// ----------------------------------------------------------------- experiment

TEST(Experiment, SpaceKindRoundTrip) {
  EXPECT_EQ(gm::space_kind_from_string("ring"), gm::SpaceKind::kRing);
  EXPECT_EQ(gm::space_kind_from_string("torus"), gm::SpaceKind::kTorus);
  EXPECT_EQ(gm::space_kind_from_string("uniform"), gm::SpaceKind::kUniform);
  EXPECT_THROW(gm::space_kind_from_string("plane"), std::invalid_argument);
  EXPECT_EQ(gm::to_string(gm::SpaceKind::kTorus), "torus");
}

namespace {

/// The scalar engine, the runner these Experiment tests were written for.
gm::Scenario scalar() {
  gm::Scenario sc;
  sc.engine = gm::Engine::kScalar;
  return sc;
}

}  // namespace

TEST(Experiment, BallsDefaultsToServers) {
  gm::Scenario sc;
  sc.num_servers = 100;
  EXPECT_EQ(sc.balls(), 100u);
  sc.num_balls = 10;
  EXPECT_EQ(sc.balls(), 10u);
}

TEST(Experiment, ZeroTrialsRejected) {
  auto sc = scalar();
  sc.trials = 0;
  EXPECT_THROW((void)gm::run(sc), std::invalid_argument);
}

TEST(Experiment, DeterministicAcrossThreadCounts) {
  auto sc = scalar();
  sc.space = gm::SpaceKind::kRing;
  sc.num_servers = 256;
  sc.trials = 40;
  sc.seed = 7;
  sc.threads = 1;
  const auto h1 = gm::run(sc).max_load;
  sc.threads = 4;
  const auto h4 = gm::run(sc).max_load;
  EXPECT_EQ(h1, h4);
}

TEST(Experiment, SeedChangesDistributionSamples) {
  auto a = scalar();
  a.num_servers = 256;
  a.trials = 20;
  a.seed = 1;
  auto b = a;
  b.seed = 2;
  // Same shape but (almost surely) not identical histograms.
  EXPECT_NE(gm::run(a).max_load, gm::run(b).max_load);
}

TEST(Experiment, UniformTwoChoiceMatchesKnownScale) {
  auto sc = scalar();
  sc.space = gm::SpaceKind::kUniform;
  sc.num_servers = 1 << 12;
  sc.trials = 30;
  const auto h = gm::run(sc).max_load;
  // Classic result: max load = log2 log n + Theta(1) ~ 3-4 at n = 4096.
  EXPECT_GE(h.min_value(), 2u);
  EXPECT_LE(h.max_value(), 6u);
}

TEST(Experiment, MeanMaxLoadAgreesWithHistogram) {
  auto sc = scalar();
  sc.num_servers = 128;
  sc.trials = 25;
  EXPECT_NEAR(gm::run(sc).mean_max_load(), gm::run(sc).max_load.mean(),
              1e-12);
}

TEST(Experiment, TorusExperimentRuns) {
  auto sc = scalar();
  sc.space = gm::SpaceKind::kTorus;
  sc.num_servers = 256;
  sc.trials = 10;
  const auto h = gm::run(sc).max_load;
  EXPECT_EQ(h.total(), 10u);
  EXPECT_GE(h.min_value(), 2u);
  EXPECT_LE(h.max_value(), 7u);
}

TEST(Experiment, SmallerRegionTieOnTorusRuns) {
  auto sc = scalar();
  sc.space = gm::SpaceKind::kTorus;
  sc.num_servers = 128;
  sc.trials = 5;
  sc.tie = gc::TieBreak::kSmallerRegion;
  const auto h = gm::run(sc).max_load;
  EXPECT_EQ(h.total(), 5u);
}
