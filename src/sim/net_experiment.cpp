#include "sim/net_experiment.hpp"

#include <cstdio>
#include <stdexcept>

#include "parallel/trial_runner.hpp"
#include "sim/scenario.hpp"
#include "sim/table_format.hpp"

namespace geochoice::sim {

NetScenarioConfig net_scenario_config(const Scenario& sc) {
  NetScenarioConfig cfg;
  cfg.net.nodes = static_cast<std::size_t>(sc.num_servers);
  cfg.net.keys = sc.balls();
  cfg.net.choices = sc.num_choices;
  cfg.net.window = sc.window;
  cfg.net.tie = sc.tie;
  cfg.net.latency = sc.latency;
  cfg.net.lookups = sc.lookups;
  cfg.net.seed = sc.seed;
  cfg.trials = sc.trials;
  cfg.threads = sc.threads;
  return cfg;
}

NetScenarioResult net_scenario_result(const RunReport& report) {
  NetScenarioResult r;
  static_cast<WireSummary&>(r) = report.wire;
  r.max_load = report.max_load;
  return r;
}

NetScenarioResult run_net_scenario(const NetScenarioConfig& cfg) {
  if (cfg.trials == 0) {
    throw std::invalid_argument("run_net_scenario: zero trials");
  }
  const auto per_trial = parallel::run_trials(
      cfg.trials, cfg.net.seed,
      [&cfg](std::uint64_t trial, rng::DefaultEngine& /*unused*/) {
        net::NetConfig c = cfg.net;
        c.trial = trial;
        c.trace = trial == 0 ? cfg.trace : nullptr;
        return net::NetSimulator::simulate(c);
      },
      cfg.threads);

  NetScenarioResult out;
  const auto t = static_cast<double>(per_trial.size());
  std::uint64_t inserts = 0, links = 0, probe_hops = 0, stale = 0;
  const auto by = [](const net::NetMetrics& m, net::MsgType t) {
    return m.links_by_type[static_cast<std::size_t>(t)];
  };
  for (const auto& m : per_trial) {
    out.max_load.add(m.max_load);
    out.mean_lookup_hops += m.lookup_hops.mean() / t;
    out.lookup_hops_p50 += m.lookup_hops_q.value(0) / t;
    out.lookup_hops_p90 += m.lookup_hops_q.value(1) / t;
    out.lookup_hops_p99 += m.lookup_hops_q.value(2) / t;
    out.insert_latency_p50 += m.insert_latency_q.value(0) / t;
    out.insert_latency_p90 += m.insert_latency_q.value(1) / t;
    out.insert_latency_p99 += m.insert_latency_q.value(2) / t;
    out.lookup_latency_p50 += m.lookup_latency_q.value(0) / t;
    out.lookup_latency_p90 += m.lookup_latency_q.value(1) / t;
    out.lookup_latency_p99 += m.lookup_latency_q.value(2) / t;
    out.mean_events += static_cast<double>(m.events) / t;
    out.mean_end_time += m.end_time / t;
    inserts += m.inserts;
    // Insert-protocol traversals only; the lookup phase has its own links.
    links += by(m, net::MsgType::kProbe) + by(m, net::MsgType::kProbeReply) +
             by(m, net::MsgType::kPlace) + by(m, net::MsgType::kPlaceAck);
    probe_hops += m.probe_hops;
    stale += m.stale_reads;
  }
  if (inserts > 0) {
    out.links_per_insert =
        static_cast<double>(links) / static_cast<double>(inserts);
    out.probe_hops_per_insert =
        static_cast<double>(probe_hops) / static_cast<double>(inserts);
    out.stale_fraction =
        static_cast<double>(stale) / static_cast<double>(inserts);
  }
  return out;
}

std::string render_net_summary(const NetScenarioConfig& cfg,
                               const NetScenarioResult& r) {
  std::string out;
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "net_sim: n = %s nodes, %llu keys, d = %d, window = %u, "
                "latency = %s(%g, %g), %llu lookups, %llu trials\n\n",
                pow2_label(cfg.net.nodes).c_str(),
                static_cast<unsigned long long>(cfg.net.insert_count()),
                cfg.net.choices, cfg.net.window,
                std::string(net::to_string(cfg.net.latency.kind)).c_str(),
                cfg.net.latency.a, cfg.net.latency.b,
                static_cast<unsigned long long>(cfg.net.lookups),
                static_cast<unsigned long long>(cfg.trials));
  out += buf;

  std::snprintf(buf, sizeof(buf), "%-24s %10s %10s %10s %10s\n", "metric",
                "mean", "p50", "p90", "p99");
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-24s %10.2f %10.2f %10.2f %10.2f\n",
                "lookup hops", r.mean_lookup_hops, r.lookup_hops_p50,
                r.lookup_hops_p90, r.lookup_hops_p99);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-24s %10s %10.2f %10.2f %10.2f\n",
                "insert latency", "-", r.insert_latency_p50,
                r.insert_latency_p90, r.insert_latency_p99);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%-24s %10s %10.2f %10.2f %10.2f\n",
                "lookup latency", "-", r.lookup_latency_p50,
                r.lookup_latency_p90, r.lookup_latency_p99);
  out += buf;
  std::snprintf(buf, sizeof(buf),
                "\nwire cost: %.2f links/insert, %.2f probe hops/insert; "
                "stale placements: %.2f%%\n",
                r.links_per_insert, r.probe_hops_per_insert,
                100.0 * r.stale_fraction);
  out += buf;

  out += "\nmax keys per node over trials:\n";
  for (const auto& line : distribution_lines(r.max_load)) {
    out += "  " + line + "\n";
  }
  return out;
}

std::vector<std::string> net_csv_header() {
  return {"n",
          "keys",
          "d",
          "window",
          "latency",
          "lat_a",
          "lat_b",
          "seed",
          "trials",
          "mean_hops",
          "hops_p99",
          "insert_lat_p50",
          "insert_lat_p99",
          "lookup_lat_p50",
          "lookup_lat_p99",
          "links_per_insert",
          "stale_fraction",
          "max_load_mean",
          "max_load_max"};
}

std::vector<std::string> net_csv_row(const NetScenarioConfig& cfg,
                                     const NetScenarioResult& r) {
  return {std::to_string(cfg.net.nodes),
          std::to_string(cfg.net.insert_count()),
          std::to_string(cfg.net.choices),
          std::to_string(cfg.net.window),
          std::string(net::to_string(cfg.net.latency.kind)),
          std::to_string(cfg.net.latency.a),
          std::to_string(cfg.net.latency.b),
          std::to_string(cfg.net.seed),
          std::to_string(cfg.trials),
          std::to_string(r.mean_lookup_hops),
          std::to_string(r.lookup_hops_p99),
          std::to_string(r.insert_latency_p50),
          std::to_string(r.insert_latency_p99),
          std::to_string(r.lookup_latency_p50),
          std::to_string(r.lookup_latency_p99),
          std::to_string(r.links_per_insert),
          std::to_string(r.stale_fraction),
          std::to_string(r.max_load.mean()),
          std::to_string(r.max_load.max_value())};
}

}  // namespace geochoice::sim
