// common.hpp — what every perfbench workload shares: run options, the
// result record the JSON line is printed from, clocks, exact
// percentiles, seed derivation.
#pragma once

#include <sched.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Command-line options of one workload run.
struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  // measured time budget of the run
  bool trace = false;     // per-layer (traced) run instead of end-to-end
  std::string scratch = ".";  // directory for oracle and trace files
};

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// One run's outcome. `attempted`/`failed` count workload operations;
/// an anchor (oracle) disagreement counts the operations it covers as
/// failed, so any wrong answer makes `failed` nonzero.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Configuration echo printed beside the result, so results from
  /// different builds or engines are never compared.
  std::vector<std::pair<std::string, std::string>> config;
  /// Chrome trace file the traced run wrote ("" when none).
  std::string trace_file;

  void add(std::string name, std::string unit, double value) {
    metrics.push_back({std::move(name), std::move(unit), value});
  }
  void note(std::string key, std::string value) {
    config.emplace_back(std::move(key), std::move(value));
  }
  [[nodiscard]] double failed_ratio() const noexcept {
    return attempted == 0 ? 1.0
                          : static_cast<double>(failed) /
                                static_cast<double>(attempted);
  }
};

/// CLOCK_MONOTONIC in nanoseconds.
[[nodiscard]] std::uint64_t now_ns() noexcept;
[[nodiscard]] inline double seconds_between(std::uint64_t t0,
                                            std::uint64_t t1) noexcept {
  return static_cast<double>(t1 - t0) * 1e-9;
}

/// Exact q-quantile (0 <= q <= 1) of `v`, linear interpolation between
/// order statistics. `v` is reordered. 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double>& v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(v, 0.5);
}

/// Latency samples in memory fixed up front: counts in 2^17 bins of
/// `bin_ns` nanoseconds, allocated and zeroed at construction. A sample
/// vector would grow with the number of ops completed, and peak RSS with
/// it, so a faster path would read as a memory regression. With 1-ns bins
/// the quantiles equal quantile() over the integer-ns samples; a wider
/// bin stands for its midpoint. Samples past the last bin, a thin tail
/// when the bins cover the latencies, are kept exactly.
class LatencyHistogram {
 public:
  explicit LatencyHistogram(std::uint64_t bin_ns);

  void add(std::uint64_t ns);
  [[nodiscard]] std::uint64_t count() const noexcept { return count_; }
  /// q-quantile in ns, interpolated between order statistics as
  /// quantile() does; 0 when empty.
  [[nodiscard]] double quantile_ns(double q);

 private:
  [[nodiscard]] double order_statistic(std::uint64_t rank) const;

  std::uint64_t bin_ns_;
  std::vector<std::uint32_t> bins_;
  std::vector<std::uint64_t> beyond_;  // samples past the last bin
  bool beyond_sorted_ = true;
  std::uint64_t count_ = 0;
  std::uint64_t in_bins_ = 0;
};

/// Independent seed for (run seed, part, index): every round input of
/// every phase is its own, all a function of the run seed alone.
[[nodiscard]] std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t part,
                                        std::uint64_t index) noexcept;

/// Peak resident set of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Hardware threads the run sees.
[[nodiscard]] unsigned hardware_threads();

/// Pins the calling thread (and the threads it starts) to the
/// `index`-th CPU it may run on, modulo their number, until destroyed.
/// The single-threaded workloads rotate their rounds over every CPU this
/// way: on a shared VM the vCPUs run at different and drifting speeds
/// (one measured steady at 115K simulated ops/s while another ran
/// 140-200K), so a run that lands wherever the scheduler puts it
/// measures the luck of its placement. Rotating samples every vCPU in
/// every run. Pinning failures are ignored: the round then runs unpinned.
class PinnedCpu {
 public:
  explicit PinnedCpu(std::size_t index);
  ~PinnedCpu();
  PinnedCpu(const PinnedCpu&) = delete;
  PinnedCpu& operator=(const PinnedCpu&) = delete;

 private:
  bool pinned_ = false;
  cpu_set_t saved_{};  // the thread's mask before pinning
};

/// Times `body(sink)` `repeats` times and returns the median of the
/// per-item nanoseconds (`items` per call). `sink` absorbs results so the
/// work cannot be optimized away.
template <typename Body>
double median_ns_per_item(int repeats, std::uint64_t items, Body&& body) {
  std::vector<double> per_item;
  per_item.reserve(static_cast<std::size_t>(repeats));
  std::uint64_t sink = 0;
  for (int r = 0; r < repeats; ++r) {
    const std::uint64_t t0 = now_ns();
    body(sink);
    const std::uint64_t t1 = now_ns();
    per_item.push_back(static_cast<double>(t1 - t0) /
                       static_cast<double>(items));
  }
  volatile std::uint64_t keep = sink;
  (void)keep;
  return median(std::move(per_item));
}

Result run_serve(const Options& opt);
Result run_simulate(const Options& opt);
Result run_place(const Options& opt);
/// Anchor and accounting self-tests; returns the number of failures.
int run_selftest(const Options& opt);

}  // namespace perfbench
