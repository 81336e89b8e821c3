// transport.hpp — the seam between node protocol logic and the world
// that moves its messages.
//
// The Chord + two-choice protocol is written once, as NodeLogic and
// ClientDriver (node.hpp), templates over a transport that gives a node
// send(m) to m.at; schedule / cancel / armed for a retransmit alarm of
// whole milliseconds; self(); and now_us(). Two worlds implement it:
//
//   * SimTransport (here): one per node of a NetSimulator run, onto the
//     run's SimNetwork. A message to another node arrives after one link
//     delay from the LatencyModel substream, one to itself after zero
//     delay and no draw. Time is in simulated microseconds; alarms sit on
//     a TimerWheel of simulated milliseconds, outside the event queue.
//   * UdpTransport (udp_transport.hpp): the real world — UDP GSO bundles
//     out, UDP GRO in, self-addressed messages in-process, alarms on
//     CLOCK_MONOTONIC.
//
// The protocol cannot tell the worlds apart, so the simulator is a
// differential oracle that runs the served code. Both count every send in
// links(), self-addressed ones included. Both worlds host each node, and
// dispatch what its transport delivers, through one NodeHost (host.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <utility>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "net/timer_wheel.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::net {

/// Per-type link-traversal counters every transport keeps: the wire cost
/// of the protocol, identical in meaning across worlds (protocol sends,
/// self-addressed ones included).
struct LinkCounters {
  std::uint64_t total = 0;
  std::array<std::uint64_t, kMsgTypeCount> by_type{};

  void count(MsgType t) noexcept {
    ++total;
    ++by_type[static_cast<std::size_t>(t)];
  }

  LinkCounters& operator+=(const LinkCounters& o) noexcept {
    total += o.total;
    for (std::size_t k = 0; k < by_type.size(); ++k) by_type[k] += o.by_type[k];
    return *this;
  }
};

/// The discrete-event world of one simulation run: the calendar queue of
/// in-flight messages, the latency substream, the link counters, the
/// simulated clock and the alarm wheel. Link delays are drawn in send
/// order and messages delivered in (time, schedule order), so a run is a
/// function of (seed, config) alone.
class SimNetwork {
 public:
  using Timer = TimerWheel<Message>::Id;

  /// Simulated microseconds per alarm-clock tick.
  static constexpr SimTime kTickUs = 1000.0;

  /// `latency_engine` must be the run's kNetLatency substream;
  /// `width_hint` seeds the calendar queue's day width.
  SimNetwork(const LatencyModel& latency, rng::DefaultEngine latency_engine,
             SimTime width_hint)
      : latency_(latency),
        gen_(std::move(latency_engine)),
        queue_(width_hint) {}

  /// To another node after one link delay; to itself after none, no draw.
  void send(std::uint32_t from, const Message& m) {
    links_.count(m.type);
    queue_.push(m.at == from ? now_ : now_ + latency_.sample(gen_), m);
  }

  /// Arm an alarm `delay_ms` ticks after the clock's current tick.
  Timer schedule(std::uint64_t delay_ms, const Message& m) {
    // step() moves the clock only while alarms are armed; an idle clock
    // catches up here, in one jump.
    if (wheel_.pending() == 0) {
      wheel_.advance(tick_before(now_), [](const Message&) {});
    }
    return wheel_.schedule(delay_ms, m);
  }
  void cancel(Timer t) { wheel_.cancel(t); }
  [[nodiscard]] bool armed(Timer t) const noexcept { return wheel_.armed(t); }

  /// The time of the message being delivered, or of the tick being fired.
  [[nodiscard]] SimTime now() const noexcept { return now_; }
  [[nodiscard]] const LinkCounters& links() const noexcept { return links_; }

  /// The drive loop's step: fire the alarm clock's next tick, at that
  /// tick's time, when alarms are armed and it comes strictly before the
  /// next message (a message at the tick's own instant goes first); else
  /// deliver that message. False when nothing is queued or armed.
  template <typename OnMessage, typename OnAlarm>
  bool step(OnMessage&& on_message, OnAlarm&& on_alarm) {
    const bool armed = wheel_.pending() > 0;
    if (queue_.empty() && !armed) return false;
    const std::uint64_t tick = wheel_.now() + 1;
    if (armed && (queue_.empty() || tick_time(tick) < queue_.next_time())) {
      now_ = std::max(now_, tick_time(tick));
      wheel_.advance(tick, on_alarm);
      return true;
    }
    const MessageQueue::Event e = queue_.pop();
    now_ = e.time;
    on_message(e);
    return true;
  }

  /// The last alarm-clock tick strictly before time `t`: where the clock
  /// stands while the messages at `t` are delivered. Saturates at 2^62
  /// (1.5e8 simulated years), so it is defined for every time the queue
  /// can hold.
  [[nodiscard]] static std::uint64_t tick_before(SimTime t) noexcept {
    const double k = std::ceil(t / kTickUs) - 1.0;
    if (!(k > 0.0)) return 0;
    constexpr double kMaxTick = 0x1p62;
    return static_cast<std::uint64_t>(std::min(k, kMaxTick));
  }
  [[nodiscard]] static SimTime tick_time(std::uint64_t tick) noexcept {
    return static_cast<SimTime>(tick) * kTickUs;
  }

 private:
  LatencyModel latency_;
  rng::DefaultEngine gen_;
  MessageQueue queue_;
  TimerWheel<Message> wheel_;
  LinkCounters links_;
  SimTime now_ = 0.0;
};

/// One node's view of the SimNetwork: the transport surface NodeLogic and
/// ClientDriver compile against.
class SimTransport {
 public:
  using Timer = SimNetwork::Timer;

  SimTransport(SimNetwork& network, std::uint32_t self) noexcept
      : net_(&network), self_(self) {}

  void send(const Message& m) { net_->send(self_, m); }
  Timer schedule(std::uint64_t delay_ms, const Message& m) {
    return net_->schedule(delay_ms, m);
  }
  void cancel(Timer t) { net_->cancel(t); }
  [[nodiscard]] bool armed(Timer t) const noexcept { return net_->armed(t); }
  [[nodiscard]] std::uint32_t self() const noexcept { return self_; }
  /// SimTime, not an integer: simulated latencies keep their precision.
  [[nodiscard]] SimTime now_us() const noexcept { return net_->now(); }

 private:
  SimNetwork* net_;
  std::uint32_t self_;
};

}  // namespace geochoice::net
