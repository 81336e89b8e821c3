#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "rng/splitmix64.hpp"

namespace perfbench {

std::uint64_t now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

namespace {
constexpr std::size_t kLatencyBins = std::size_t{1} << 17;
}  // namespace

LatencyHistogram::LatencyHistogram(std::uint64_t bin_ns)
    : bin_ns_(bin_ns), bins_(kLatencyBins, 0) {
  beyond_.reserve(4096);
}

void LatencyHistogram::add(std::uint64_t ns) {
  const std::uint64_t bin = ns / bin_ns_;
  if (bin < bins_.size()) {
    ++bins_[bin];
    ++in_bins_;
  } else {
    beyond_.push_back(ns);
    beyond_sorted_ = false;
  }
  ++count_;
}

double LatencyHistogram::order_statistic(std::uint64_t rank) const {
  if (rank >= in_bins_) return static_cast<double>(beyond_[rank - in_bins_]);
  std::uint64_t below = 0;
  for (std::size_t b = 0;; ++b) {
    below += bins_[b];
    if (rank < below) {
      return static_cast<double>(b * bin_ns_) +
             static_cast<double>(bin_ns_ - 1) / 2.0;
    }
  }
}

double LatencyHistogram::quantile_ns(double q) {
  if (count_ == 0) return 0.0;
  if (!beyond_sorted_) {
    std::sort(beyond_.begin(), beyond_.end());
    beyond_sorted_ = true;
  }
  const double pos = q * static_cast<double>(count_ - 1);
  const auto lo = static_cast<std::uint64_t>(pos);
  const std::uint64_t hi = std::min(lo + 1, count_ - 1);
  const double frac = pos - static_cast<double>(lo);
  const double a = order_statistic(lo);
  return a + (order_statistic(hi) - a) * frac;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t part,
                          std::uint64_t index) noexcept {
  return geochoice::rng::mix64(geochoice::rng::mix64(seed ^ (part << 48)) +
                               index);
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so a process started from a larger parent (python3 run.py)
  // would report the parent's resident set instead of its own.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  throw std::runtime_error("peak RSS: no VmHWM in /proc/self/status");
}

unsigned hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

namespace {

/// CPUs this process may run on, read once at first use.
const std::vector<int>& allowed_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &set)) out.push_back(c);
      }
    }
    return out;
  }();
  return cpus;
}

}  // namespace

PinnedCpu::PinnedCpu(std::size_t index) {
  const std::vector<int>& cpus = allowed_cpus();
  if (cpus.empty() || sched_getaffinity(0, sizeof(saved_), &saved_) != 0) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[index % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof(one), &one) == 0;
}

PinnedCpu::~PinnedCpu() {
  if (pinned_) (void)sched_setaffinity(0, sizeof(saved_), &saved_);
}

}  // namespace perfbench
