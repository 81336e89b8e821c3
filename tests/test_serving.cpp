// test_serving.cpp — the serving harness's determinism contract.
//
// The load-bearing pin: with window = 1 and zero placement latency the
// serving harness's placement phase is the serialized wire engine, which
// is bit-identical to core::run_process on ChordSuccessorSpace. So the
// per-node tally of ServingReport::placements must equal run_process's
// loads exactly — the serving layer adds a workload on top of the
// structural result, it never perturbs it.
//
// Serving latencies involve libm (exponential draws), so cross-run
// equality is only asserted within this process; cross-policy claims
// stick to placement-phase quantities (bit-stable) or large-margin
// same-run comparisons.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/process.hpp"
#include "net/chord_space.hpp"
#include "net/simulator.hpp"
#include "rng/streams.hpp"
#include "sim/serving.hpp"

namespace {

using namespace geochoice;
namespace gc = geochoice::core;
namespace gn = geochoice::net;
namespace gr = geochoice::rng;
namespace gs = geochoice::sim;

constexpr std::uint64_t kSeed = 0x73657276696e6721ULL;  // "serving!"

gs::ServingConfig base_config() {
  gs::ServingConfig cfg;
  cfg.nodes = 128;
  cfg.keys = 512;
  cfg.choices = 2;
  cfg.window = 1;
  cfg.tie = core::TieBreak::kFirstChoice;
  cfg.latency = gn::LatencyModel::zero();
  cfg.requests = 2048;
  cfg.zipf_alpha = 0.9;
  cfg.seed = kSeed;
  return cfg;
}

std::vector<std::uint32_t> tally(const std::vector<std::uint32_t>& placements,
                                 std::size_t nodes) {
  std::vector<std::uint32_t> loads(nodes, 0);
  for (const std::uint32_t owner : placements) ++loads[owner];
  return loads;
}

TEST(Serving, WindowOneZeroLatencyPlacementsBitMatchRunProcess) {
  for (const auto tie :
       {gc::TieBreak::kFirstChoice, gc::TieBreak::kLowestIndex}) {
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      gs::ServingConfig cfg = base_config();
      cfg.tie = tie;
      cfg.trial = trial;
      cfg.requests = 64;  // the pin is about placements, not the workload
      const auto report = gs::run_serving(cfg);

      gn::NetConfig ncfg;
      ncfg.nodes = cfg.nodes;
      ncfg.keys = cfg.keys;
      ncfg.choices = cfg.choices;
      ncfg.seed = cfg.seed;
      ncfg.trial = trial;
      const auto ring = gn::make_ring(ncfg.nodes, ncfg.seed, ncfg.trial);
      const gn::ChordSuccessorSpace space(ring);
      gc::ProcessOptions opt;
      opt.num_balls = cfg.keys;
      opt.num_choices = cfg.choices;
      opt.tie = tie;
      auto gen =
          gr::make_stream(cfg.seed, trial, gr::StreamPurpose::kBallChoices);
      const auto ref = gc::run_process(space, opt, gen);

      ASSERT_EQ(report.placements.size(), cfg.keys);
      EXPECT_EQ(tally(report.placements, cfg.nodes), ref.loads);
      EXPECT_EQ(report.max_load, ref.max_load);
    }
  }
}

TEST(Serving, ServesEveryRequestFromTheStoresWithoutMisses) {
  const gs::ServingConfig cfg = base_config();
  const auto report = gs::run_serving(cfg);
  EXPECT_EQ(report.requests, cfg.requests);
  EXPECT_EQ(report.misses, 0u);
  EXPECT_EQ(report.latency_us.count(), cfg.requests);
  EXPECT_EQ(report.latency_us_q.count(), cfg.requests);
  // Every request pays at least the idle service time.
  EXPECT_GE(report.latency_us.min(), cfg.service_base_us);
  EXPECT_GT(report.makespan_us, 0.0);
}

TEST(Serving, RepeatedRunsAreIdentical) {
  const gs::ServingConfig cfg = base_config();
  const auto a = gs::run_serving(cfg);
  const auto b = gs::run_serving(cfg);
  EXPECT_EQ(a.placements, b.placements);
  EXPECT_EQ(a.peak_queue, b.peak_queue);
  // Same process, same libm: the latency stream is bit-identical too.
  EXPECT_EQ(a.latency_us.mean(), b.latency_us.mean());
  EXPECT_EQ(a.latency_us.max(), b.latency_us.max());
  EXPECT_EQ(a.makespan_us, b.makespan_us);
}

TEST(Serving, TwoChoicePlacementNeverLosesToOneChoiceOnMaxLoad) {
  gs::ServingConfig one = base_config();
  one.choices = 1;
  gs::ServingConfig two = base_config();
  two.choices = 2;
  const auto r1 = gs::run_serving(one);
  const auto r2 = gs::run_serving(two);
  // Placement phase is bit-stable, so this is a deterministic statement
  // about this (seed, config) — and the paper's: d = 2 flattens the tail.
  EXPECT_LT(r2.max_load, r1.max_load);
  // The flatter placement serves the same open-loop stream with a
  // shallower worst backlog.
  EXPECT_LE(r2.peak_queue, r1.peak_queue);
}

TEST(Serving, InvalidConfigsThrow) {
  {
    gs::ServingConfig cfg = base_config();
    cfg.nodes = 0;
    EXPECT_THROW((void)gs::run_serving(cfg), std::invalid_argument);
  }
  {
    gs::ServingConfig cfg = base_config();
    cfg.keys = 0;
    EXPECT_THROW((void)gs::run_serving(cfg), std::invalid_argument);
  }
  {
    gs::ServingConfig cfg = base_config();
    cfg.arrival_rate = 0.0;
    EXPECT_THROW((void)gs::run_serving(cfg), std::invalid_argument);
  }
  {
    gs::ServingConfig cfg = base_config();
    cfg.burst_factor = 0.5;
    EXPECT_THROW((void)gs::run_serving(cfg), std::invalid_argument);
  }
  {
    gs::ServingConfig cfg = base_config();
    cfg.queue_coupling = -1.0;
    EXPECT_THROW((void)gs::run_serving(cfg), std::invalid_argument);
  }
  {
    // Region-measure ties need arc sizes the wire engine rejects.
    gs::ServingConfig cfg = base_config();
    cfg.tie = gc::TieBreak::kSmallerRegion;
    EXPECT_THROW((void)gs::run_serving(cfg), std::invalid_argument);
  }
}

}  // namespace
