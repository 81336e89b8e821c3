// spans.hpp — the traced runs' span recorder.
//
// The benchmark opens a span around each call it makes into a layer
// (UdpTransport::poll, UdpTransport::send, a NodeLogic or ClientDriver
// handler, a sim::run call, an isolated timing loop). Spans nest on one
// thread; when a span closes, its duration minus the time its children
// covered is its self time, credited to its layer. Self times of a span
// tree sum to the root's duration, so per-layer self times plus the time
// spent outside any span add up to the traced wall time.
//
// Spans stay in memory. The first 2^16 spans are retained for the Chrome
// trace file (complete "X" events); the rest are only counted, so a long
// run cannot exhaust memory.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class Layer : std::uint8_t {
  kUdpPoll,   // UdpTransport::poll minus its callbacks
  kUdpSend,   // UdpTransport::send (encode + sendto)
  kNode,      // NodeLogic::on_message minus its sends
  kClient,    // ClientDriver start/on_reply/on_timer minus its sends
  kPump,      // the benchmark's own per-reply bookkeeping
  kCall,      // one front-door call (sim::run)
  kIsolated,  // an isolated layer timing loop
};
inline constexpr std::size_t kLayerCount = 7;

/// Which request a span serves; with the phase, round and op id it forms
/// the identifier shared by all spans of one request.
enum class ReqKind : std::uint8_t { kNone, kInsert, kPut, kGet, kCensus };

class SpanRecorder {
 public:
  SpanRecorder();

  /// Phase and round of the spans opened from now on: op ids restart in
  /// every round, so they are part of a request's identifier
  /// ("w1-r3-insert-5").
  void set_round(const char* phase, std::uint32_t round) noexcept {
    phase_ = phase;
    round_ = round;
  }

  void open(Layer layer, const char* name, std::uint32_t tid = 0,
            ReqKind kind = ReqKind::kNone, std::uint64_t op = 0);
  void close() noexcept;

  /// Self nanoseconds credited to `l` since the last reset_totals().
  [[nodiscard]] std::uint64_t self_ns(Layer l) const noexcept {
    return self_[static_cast<std::size_t>(l)];
  }
  /// Summed durations of top-level spans since the last reset_totals().
  [[nodiscard]] std::uint64_t top_level_ns() const noexcept { return top_; }
  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return recorded_ - kept_.size();
  }
  /// Start a new accounting interval; kept spans stay for the trace file.
  void reset_totals() noexcept;

  /// Per-layer self time recomputed from the kept spans alone (exact
  /// when none were dropped); the self-test checks it against the
  /// online totals.
  [[nodiscard]] std::array<std::uint64_t, kLayerCount> offline_self_ns() const;

  /// Write the kept spans as Chrome trace-event JSON. Throws on I/O
  /// failure.
  void write_chrome_json(const std::string& path) const;

 private:
  struct Open {
    std::uint64_t start = 0;
    std::uint64_t children = 0;
    std::size_t kept_index = 0;  // index into kept_, or kNotKept
    Layer layer = Layer::kCall;
  };
  struct Span {
    const char* name = "";
    const char* phase = nullptr;
    std::uint64_t start = 0;
    std::uint64_t dur = 0;
    std::uint64_t op = 0;
    std::uint32_t round = 0;
    std::uint32_t tid = 0;
    std::uint32_t depth = 0;
    Layer layer = Layer::kCall;
    ReqKind kind = ReqKind::kNone;
  };
  static constexpr std::size_t kNotKept = static_cast<std::size_t>(-1);

  std::uint64_t epoch_;
  const char* phase_ = nullptr;
  std::uint32_t round_ = 0;
  std::vector<Open> stack_;
  std::vector<Span> kept_;
  std::uint64_t recorded_ = 0;
  std::array<std::uint64_t, kLayerCount> self_{};
  std::uint64_t top_ = 0;
};

/// RAII span.
class Scope {
 public:
  Scope(SpanRecorder& rec, Layer layer, const char* name,
        std::uint32_t tid = 0, ReqKind kind = ReqKind::kNone,
        std::uint64_t op = 0)
      : rec_(rec) {
    rec_.open(layer, name, tid, kind, op);
  }
  ~Scope() { rec_.close(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder& rec_;
};

}  // namespace perfbench
