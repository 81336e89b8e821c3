#include "sim/serving.hpp"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <stdexcept>
#include <utility>
#include <vector>

#include "net/protocol.hpp"
#include "net/simulator.hpp"
#include "rng/alias_table.hpp"
#include "rng/distributions.hpp"
#include "rng/streams.hpp"
#include "store/hash_store.hpp"

namespace geochoice::sim {

namespace {

/// One node's serving state: a FIFO queue tracked as outstanding
/// completion times. Everything is plain doubles — the serving clock is
/// model time, not event-queue time.
struct NodeQueue {
  std::deque<double> completions;
  double busy_until = 0.0;

  /// Backlog at arrival instant `t` after retiring finished requests.
  [[nodiscard]] std::uint32_t depth_at(double t) {
    while (!completions.empty() && completions.front() <= t) {
      completions.pop_front();
    }
    return static_cast<std::uint32_t>(completions.size());
  }
};

}  // namespace

ServingReport run_serving(const ServingConfig& cfg) {
  if (cfg.nodes < 1) {
    throw std::invalid_argument("run_serving: nodes must be >= 1");
  }
  if (cfg.keys < 1) {
    throw std::invalid_argument("run_serving: keys must be >= 1");
  }
  if (cfg.arrival_rate <= 0.0) {
    throw std::invalid_argument("run_serving: arrival_rate must be > 0");
  }
  if (cfg.burst_factor < 1.0) {
    throw std::invalid_argument("run_serving: burst_factor must be >= 1");
  }
  if (cfg.burst_period_us <= 0.0) {
    throw std::invalid_argument("run_serving: burst_period_us must be > 0");
  }
  if (cfg.service_base_us < 0.0 || cfg.queue_coupling < 0.0) {
    throw std::invalid_argument(
        "run_serving: service_base_us and queue_coupling must be >= 0");
  }

  // Phase 1: place the keys through the wire engine. The policy knobs
  // (choices, window, tie, latency) pass straight through; NetConfig
  // validation rejects the rest.
  net::NetConfig ncfg;
  ncfg.nodes = cfg.nodes;
  ncfg.keys = cfg.keys;
  ncfg.choices = cfg.choices;
  ncfg.window = cfg.window;
  ncfg.tie = cfg.tie;
  ncfg.latency = cfg.latency;
  ncfg.seed = cfg.seed;
  ncfg.trial = cfg.trial;
  net::WireResult placed = net::NetSimulator::simulate(ncfg);

  ServingReport report;
  report.placements = std::move(placed.client.placements);
  report.max_load = placed.client.max_load;

  // Phase 2: store every key's value at its owner — the same HashStore
  // and the same value derivation the UDP cluster uses.
  std::vector<store::HashStore> stores;
  stores.reserve(cfg.nodes);
  for (std::uint64_t i = 0; i < cfg.nodes; ++i) {
    stores.emplace_back(store::HashStore::kNeighborhood);
  }
  for (std::uint64_t k = 0; k < cfg.keys; ++k) {
    stores[report.placements[k]].put_u64(k, net::protocol::store_value(k));
  }

  // Phase 3: the open-loop read stream. The first half of each burst
  // cycle runs hot (rate * factor), the second half cold (rate / factor)
  // — mean rate stays near arrival_rate while the hot half stresses the
  // queues the way diurnal or flash-crowd traffic does.
  auto gen =
      rng::make_stream(cfg.seed, cfg.trial, rng::StreamPurpose::kWorkload);
  const rng::AliasTable keys(rng::zipf_weights(cfg.keys, cfg.zipf_alpha));
  std::vector<NodeQueue> queues(cfg.nodes);

  double t = 0.0;
  for (std::uint64_t r = 0; r < cfg.requests; ++r) {
    const double phase = t - cfg.burst_period_us *
                                 std::floor(t / cfg.burst_period_us);
    const bool hot = phase < 0.5 * cfg.burst_period_us;
    const double rate = hot ? cfg.arrival_rate * cfg.burst_factor
                            : cfg.arrival_rate / cfg.burst_factor;
    t += rng::exponential(gen, rate);

    const std::uint64_t key = keys.sample(gen);
    const std::uint32_t owner = report.placements[key];
    NodeQueue& q = queues[owner];

    const std::uint32_t depth = q.depth_at(t);
    report.peak_queue = std::max(report.peak_queue, depth);
    if (!stores[owner].get_u64(key).has_value()) ++report.misses;

    const double service =
        cfg.service_base_us * (1.0 + cfg.queue_coupling * depth);
    const double start = std::max(t, q.busy_until);
    const double completion = start + service;
    q.busy_until = completion;
    q.completions.push_back(completion);
    report.makespan_us = std::max(report.makespan_us, completion);

    // Wait + service, not completion - t: the subtraction cancels at large
    // t and can round a zero-wait latency just below service_base_us.
    const double latency = (start - t) + service;
    report.latency_us.add(latency);
    report.latency_us_q.add(latency);
    ++report.requests;
  }
  return report;
}

}  // namespace geochoice::sim
