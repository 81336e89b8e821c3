// latency.hpp — pluggable link-latency models for the network simulator.
//
// Every message traversal samples one delay from the model, drawn from a
// dedicated rng substream (StreamPurpose::kNetLatency) so that the latency
// draw sequence — and with it the whole event trace — is a function of
// (seed, config) alone. Three shapes cover the studies the simulator
// targets: constant (the latency -> 0 validation limit and LAN-like
// settings), uniform (bounded jitter), and lognormal (the heavy-ish WAN
// tail that makes p99 interesting).
//
// Delays are drawn one at a time, on demand, in send order: there are no
// pre-drawn blocks and no lookahead bound. A lognormal delay takes its
// normal from the ziggurat (rng::normal), whose word count per draw
// varies; the substream being dedicated is what keeps that from moving
// any other draw. Lognormal delays are equal in distribution to a
// Box–Muller draw (rng::normal_box_muller), not bit-identical to it:
// tests/test_net_sim.cpp holds them to chi-squared tests. Constant and
// uniform draws take no normal.
#pragma once

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>
#include <string_view>

#include "rng/distributions.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::net {

enum class LatencyKind {
  kConstant,   // every link takes exactly `a`
  kUniform,    // uniform in [a, b)
  kLognormal,  // exp(Normal(a, b)): a = mu, b = sigma (log scale)
};

[[nodiscard]] inline std::string_view to_string(LatencyKind k) noexcept {
  switch (k) {
    case LatencyKind::kConstant:
      return "constant";
    case LatencyKind::kUniform:
      return "uniform";
    case LatencyKind::kLognormal:
      return "lognormal";
  }
  return "?";
}

[[nodiscard]] inline LatencyKind latency_kind_from_string(
    std::string_view name) {
  if (name == "constant") return LatencyKind::kConstant;
  if (name == "uniform") return LatencyKind::kUniform;
  if (name == "lognormal") return LatencyKind::kLognormal;
  throw std::invalid_argument("unknown latency kind: " + std::string(name));
}

struct LatencyModel {
  LatencyKind kind = LatencyKind::kConstant;
  /// constant: the delay; uniform: lower bound; lognormal: mu (log scale).
  double a = 1.0;
  /// uniform: upper bound; lognormal: sigma (log scale); unused otherwise.
  double b = 0.0;

  /// Lognormal only: hard lower clamp on every sampled delay, a power of
  /// two so the clamp arithmetic is exact. The lognormal's support reaches
  /// arbitrarily close to zero, which no physical link does: a datagram
  /// pays at least its serialization and propagation time. Constant and
  /// uniform models have an intrinsic minimum (a) and are not clamped.
  static constexpr double kLognormalFloor = 0.015625;  // 2^-6

  /// Zero-delay model: the limit in which the message-level two-choice
  /// process collapses to the sequential run_process allocation.
  [[nodiscard]] static LatencyModel zero() noexcept {
    return {LatencyKind::kConstant, 0.0, 0.0};
  }
  [[nodiscard]] static LatencyModel constant(double delay) noexcept {
    return {LatencyKind::kConstant, delay, 0.0};
  }
  [[nodiscard]] static LatencyModel uniform(double lo, double hi) noexcept {
    return {LatencyKind::kUniform, lo, hi};
  }
  [[nodiscard]] static LatencyModel lognormal(double mu,
                                              double sigma) noexcept {
    return {LatencyKind::kLognormal, mu, sigma};
  }

  /// One link delay. Constant draws nothing, uniform one engine word, and
  /// lognormal one ziggurat normal (rng::normal: usually one word, more
  /// in its tail and wedges). The draw count thus varies per delay, which
  /// is why the delays get a substream of their own.
  [[nodiscard]] double sample(rng::DefaultEngine& gen) const noexcept {
    switch (kind) {
      case LatencyKind::kConstant:
        return a;
      case LatencyKind::kUniform:
        return a + (b - a) * rng::uniform01(gen);
      case LatencyKind::kLognormal:
        return std::max(kLognormalFloor,
                        std::exp(a + b * rng::normal(gen)));
    }
    return a;
  }

  /// Expected link delay — the time scale of the model. Used to seed the
  /// calendar queue's day width (event_queue.hpp); never drawn from in the
  /// simulation itself, so it cannot perturb a trace.
  [[nodiscard]] double mean() const noexcept {
    switch (kind) {
      case LatencyKind::kConstant:
        return a;
      case LatencyKind::kUniform:
        return 0.5 * (a + b);
      case LatencyKind::kLognormal:
        return std::exp(a + 0.5 * b * b);
    }
    return a;
  }

  void validate() const {
    // NaN fails every comparison, so the sign checks below would pass it;
    // an infinite parameter makes every delay (or the mean) infinite.
    if (!std::isfinite(a) || !std::isfinite(b)) {
      throw std::invalid_argument(
          "latency: " + std::string(to_string(kind)) +
          " parameters must be finite (a=" + std::to_string(a) +
          ", b=" + std::to_string(b) + ")");
    }
    switch (kind) {
      case LatencyKind::kConstant:
        if (a < 0.0) throw std::invalid_argument("latency: negative constant");
        return;
      case LatencyKind::kUniform:
        if (a < 0.0 || b < a) {
          throw std::invalid_argument("latency: need 0 <= lo <= hi");
        }
        return;
      case LatencyKind::kLognormal:
        if (b < 0.0) throw std::invalid_argument("latency: negative sigma");
        return;
    }
  }
};

}  // namespace geochoice::net
