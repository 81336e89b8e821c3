// selftest.cpp — `perfbench --selftest`: every correctness anchor must
// pass on the oracle's own answer and trip on a wrong one, latency
// histograms must give the exact quantiles, and span self times must
// account for every traced nanosecond.
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "anchors.hpp"
#include "common.hpp"
#include "net/protocol.hpp"
#include "sim/scenario.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using namespace geochoice;

void spin_ns(std::uint64_t ns) {
  const std::uint64_t t0 = now_ns();
  while (now_ns() - t0 < ns) {
  }
}

sim::Scenario small_chord(bool wire) {
  sim::Scenario sc;
  sc.space = sim::SpaceKind::kChordNet;
  sc.num_servers = 64;
  sc.num_balls = 256;
  sc.num_choices = 2;
  sc.tie = core::TieBreak::kFirstChoice;
  sc.trials = 4;
  sc.threads = 1;
  sc.seed = 11;
  if (wire) {
    sc.model = sim::ExecModel::kWire;
    sc.latency = net::LatencyModel::zero();
    sc.window = 1;
  } else {
    sc.engine = sim::Engine::kScalar;
  }
  return sc;
}

}  // namespace

int run_selftest(const Options& opt) {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what);
    if (!ok) ++failures;
  };

  // serve w1: cluster placements == zero-latency simulator placements.
  const std::vector<std::uint32_t> want =
      simulator_placements(7, 4, 256, opt.scratch + "/selftest_oracle.json");
  bool complete = want.size() == 256;
  for (const std::uint32_t o : want) complete = complete && o < 4;
  check(complete, "serve: simulator oracle yields one owner per insert");
  check(placement_mismatches(want, want) == 0, "serve: placement anchor holds on the oracle's answer");
  std::vector<std::uint32_t> wrong = want;
  wrong[17] = (wrong[17] + 1) % 4;
  check(placement_mismatches(wrong, want) == 1, "serve: placement anchor trips on one wrong owner");
  wrong = want;
  wrong.pop_back();
  check(placement_mismatches(wrong, want) == 1, "serve: placement anchor trips on a missing placement");
  const std::string event =
      "  {\"name\": \"place delivered\", \"cat\": \"net\", \"ph\": \"i\", \"ts\": 0.0, "
      "\"pid\": 0, \"tid\": 2, \"s\": \"t\", \"args\": {\"op\": 1, \"from\": 0}}\n";
  const auto twice = placements_from_trace(event + event, 2);
  check(twice[0] == kNoOwner && twice[1] == kNoOwner,
        "serve: an op placed twice (or never) has no oracle owner");

  // serve w32: census sums to the inserts; gets return their key's bytes.
  std::vector<std::uint32_t> loads{60, 70, 66, 60};
  check(census_mismatch(loads, 4, 256) == 0, "serve: census anchor holds when loads sum to inserts");
  loads[2] += 1;
  check(census_mismatch(loads, 4, 256) == 1, "serve: census anchor trips on an extra placement");
  loads[2] -= 1;
  loads.pop_back();
  check(census_mismatch(loads, 4, 256) > 0, "serve: census anchor trips on a missing node");
  const std::uint64_t bytes = net::protocol::store_value(5);
  check(get_reply_correct(5, true, bytes), "serve: get anchor holds on the key's bytes");
  check(!get_reply_correct(5, true, bytes ^ 1), "serve: get anchor trips on wrong bytes");
  check(!get_reply_correct(5, false, bytes), "serve: get anchor trips on a miss");

  // simulate: window-1 zero-latency wire == structural Chord max loads.
  const auto wire = sim::run(small_chord(true)).max_load;
  const auto structural = sim::run(small_chord(false)).max_load;
  check(same_max_loads(wire, structural), "simulate: wire anchor holds on the structural answer");
  auto skewed = structural;
  skewed.add(structural.max_value() + 1);
  check(!same_max_loads(wire, skewed), "simulate: wire anchor trips on a different max load");

  // place: trial 0 on the default engine == Engine::kScalar.
  sim::Scenario ring;
  ring.space = sim::SpaceKind::kRing;
  ring.num_servers = 1024;
  ring.num_balls = 1 << 14;
  ring.tie = core::TieBreak::kFirstChoice;
  ring.trials = 1;
  ring.threads = 1;
  ring.seed = 13;
  sim::Scenario scalar = ring;
  scalar.engine = sim::Engine::kScalar;
  const auto fast = sim::run(ring).max_load;
  const auto slow = sim::run(scalar).max_load;
  check(same_max_loads(fast, slow), "place: engine anchor holds on the scalar answer");
  stats::IntHistogram off_by_one;
  off_by_one.add(slow.max_value() + 1);
  check(!same_max_loads(fast, off_by_one), "place: engine anchor trips on a different max load");

  // Latency histograms: 1-ns bins give quantile()'s exact answer, also
  // past the last bin; wider bins stay within half a bin.
  LatencyHistogram exact(1), wide(32);
  std::vector<double> raw;
  for (std::uint64_t i = 0; i < 5000; ++i) {
    const std::uint64_t ns = 3000 + (i * 7919) % 40000 + (i % 97 == 0 ? 500000 : 0);
    exact.add(ns);
    wide.add(ns);
    raw.push_back(static_cast<double>(ns));
  }
  bool exact_ok = true, wide_ok = true;
  for (const double q : {0.0, 0.5, 0.9, 0.99, 0.999, 1.0}) {
    const double expect = quantile(raw, q);
    exact_ok = exact_ok && exact.quantile_ns(q) == expect;
    wide_ok = wide_ok && std::abs(wide.quantile_ns(q) - expect) <= 16.0;
  }
  check(exact_ok && exact.count() == raw.size(),
        "latency: 1-ns histogram quantiles equal the exact ones");
  check(wide_ok, "latency: 32-ns histogram quantiles within half a bin");

  // Span accounting: online self times equal the offline recomputation,
  // and sum to the top-level spans' durations.
  SpanRecorder rec;
  rec.set_round("w1", 3);
  for (int i = 0; i < 50; ++i) {
    Scope poll(rec, Layer::kUdpPoll, "poll", 0);
    spin_ns(2000);
    {
      Scope node(rec, Layer::kNode, "node", 1, ReqKind::kInsert, i);
      spin_ns(3000);
      Scope send(rec, Layer::kUdpSend, "send", 1, ReqKind::kInsert, i);
      spin_ns(1000);
    }
    {
      Scope pump(rec, Layer::kPump, "pump", 0, ReqKind::kGet, i);
      Scope client(rec, Layer::kClient, "client", 0, ReqKind::kGet, i);
      spin_ns(500);
    }
  }
  const auto offline = rec.offline_self_ns();
  std::uint64_t sum = 0;
  bool same = true;
  for (std::size_t l = 0; l < kLayerCount; ++l) {
    same = same && offline[l] == rec.self_ns(static_cast<Layer>(l));
    sum += rec.self_ns(static_cast<Layer>(l));
  }
  check(same, "spans: online self times equal the offline recomputation");
  check(sum == rec.top_level_ns(), "spans: self times sum to the traced wall time");
  check(rec.self_ns(Layer::kNode) >= 50 * 3000 && rec.self_ns(Layer::kUdpSend) >= 50 * 1000,
        "spans: a child's time is not credited to its parent");
  rec.write_chrome_json(opt.scratch + "/selftest_trace.json");

  std::fprintf(stderr, "selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
