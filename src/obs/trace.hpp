// trace.hpp — per-trial ring-buffer recorder of message lifecycle
// events, exported as Chrome trace-event JSON (chrome://tracing or
// https://ui.perfetto.dev -> "Open trace file").
//
// One recorder observes one trial. The phases cover a message's life in
// every world the repo runs it in:
//
//   scheduled      an op's first message, handed to its transport by
//                  ClientDriver
//   popped         dequeued by the simulator's drive loop for delivery
//   forwarded      routed one Chord hop toward the owner
//   delivered      arrived at its destination handler
//   retransmitted  a timeout fired and the message was sent again
//
// `--transport=sim` and `--transport=udp` emit the SAME schema: instant
// events ("ph":"i") with ts in microseconds, tid = the node acting on
// the message, and args carrying op/key routing detail: NodeLogic and
// ClientDriver record them in both worlds. One simulated time unit is one
// microsecond in exported traces, as ClientDriver reads it from now_us(),
// so traces from both transports land on the same scale.
//
// The recorder is intentionally NOT thread-safe: every engine that feeds
// it is single-threaded where messages are observed (the DES loop of one
// trial, the loopback cluster pump, a dht_node process). The ring
// overwrites the oldest records when full and counts what it dropped.
//
// With GEOCHOICE_OBS=OFF, record() is an inline no-op (call sites fold
// away) and the exporter returns an empty-but-valid trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace geochoice::obs {

enum class TracePhase : std::uint8_t {
  kScheduled = 0,
  kPopped,
  kForwarded,
  kDelivered,
  kRetransmit,
};

inline constexpr int kTracePhaseCount = 5;

[[nodiscard]] constexpr const char* to_string(TracePhase p) noexcept {
  switch (p) {
    case TracePhase::kScheduled:    return "scheduled";
    case TracePhase::kPopped:       return "popped";
    case TracePhase::kForwarded:    return "forwarded";
    case TracePhase::kDelivered:    return "delivered";
    case TracePhase::kRetransmit:   return "retransmitted";
  }
  return "?";
}

/// One lifecycle observation. `node` becomes the Chrome tid; `msg_type`
/// indexes the type-name table passed to to_chrome_json (for the net
/// layer that is net::MsgType's numeric value).
struct TraceRecord {
  double ts_us = 0.0;
  std::uint64_t op = 0;
  std::uint32_t node = 0;
  std::uint32_t from = 0;
  std::uint32_t client = 0;
  std::uint32_t hops = 0;
  std::uint32_t load = 0;
  TracePhase phase = TracePhase::kScheduled;
  std::uint8_t msg_type = 0;
};

class TraceRecorder {
 public:
  static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 16;

  explicit TraceRecorder(std::size_t capacity = kDefaultCapacity);

#if defined(GEOCHOICE_OBS_ENABLED)
  void record(const TraceRecord& r) noexcept {
    ring_[static_cast<std::size_t>(total_ % ring_.size())] = r;
    ++total_;
  }
#else
  void record(const TraceRecord&) noexcept {}
#endif

  /// Records currently held (<= capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  /// Records ever seen, including overwritten ones.
  [[nodiscard]] std::uint64_t recorded() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept;
  void clear() noexcept;

  /// Held records, oldest first.
  [[nodiscard]] std::vector<TraceRecord> records() const;

  /// Chrome trace-event JSON ({"traceEvents":[...]}). `type_names[t]`
  /// labels msg_type t; out-of-range types render as "?". Records the
  /// drop count in a trailing metadata field when the ring overflowed.
  [[nodiscard]] std::string to_chrome_json(
      const std::vector<std::string>& type_names) const;

 private:
  std::vector<TraceRecord> ring_;
  std::uint64_t total_ = 0;
};

}  // namespace geochoice::obs
