// transport.hpp — the seam between node protocol logic and the world
// that moves its messages.
//
// The same Chord + two-choice protocol runs in two worlds:
//
//   * SimTransport (here): a deterministic discrete-event world. "Sending"
//     a message samples one link delay from the run's LatencyModel
//     substream and schedules the message on the calendar-queue
//     MessageQueue; simulated time is whatever the drive loop pops next.
//     This is the event loop NetSimulator has always run on, extracted so
//     the protocol handlers in SimCore talk to a transport surface instead
//     of a queue they own.
//   * UdpTransport (udp_transport.hpp): the real world. Sending encodes
//     the message with the fixed wire codec (wire.hpp) into a buffer per
//     destination node; each poll() drains the socket, then writes every
//     buffer as one UDP GSO sendmsg. The receiver (UDP GRO) reads the
//     bundle whole and cuts it into frames by the segment size the
//     kernel reports. A message a node addresses to itself stays
//     in-process, handled within the same poll(). Delivery order and
//     timing are whatever the kernel and the network do, and timers come
//     from a timer wheel against the monotonic clock.
//
// Both expose the same three verbs the protocol needs — send one message
// to its `at` node, deliver a message locally, schedule a timer — so node
// logic written against the seam (net/node.hpp, net/sim_core.hpp) cannot
// tell which world it is in. That is the point: the simulator is the
// differential oracle for the served system.
//
// Determinism note (SimTransport): link sends draw from the latency
// engine in exactly the order send() is called — the same order the
// pre-seam SimCore consumed its kNetLatency substream — so extracting the
// transport moved no draw and the pinned golden trace hashes are
// unchanged.
#pragma once

#include <array>
#include <cstdint>
#include <utility>

#include "net/latency.hpp"
#include "net/message.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::net {

/// Per-type link-traversal counters every transport keeps: the wire cost
/// of the protocol, identical in meaning across worlds (simulated link
/// traversals there, protocol sends — UDP datagrams plus self-addressed
/// messages — in UdpTransport).
struct LinkCounters {
  std::uint64_t total = 0;
  std::array<std::uint64_t, kMsgTypeCount> by_type{};

  void count(MsgType t) noexcept {
    ++total;
    ++by_type[static_cast<std::size_t>(t)];
  }
};

/// The discrete-event transport: one calendar queue of in-flight
/// messages, one latency substream. The drive loop (the simulation
/// engine) owns time: it pops events and hands them to the protocol
/// handlers, which respond through send()/deliver_local().
class SimTransport {
 public:
  /// `latency_engine` must be the run's kNetLatency substream;
  /// `width_hint` seeds the calendar queue's day width.
  SimTransport(const LatencyModel& latency, rng::DefaultEngine latency_engine,
               SimTime width_hint)
      : latency_(latency),
        gen_(std::move(latency_engine)),
        queue_(width_hint) {}

  /// One link traversal to m.at: sample a delay, schedule the delivery.
  void send(SimTime now, const Message& m) {
    links_.count(m.type);
    queue_.push(now + latency_.sample(gen_), m);
  }

  /// Zero-delay self-delivery: an operation starting at its own client
  /// costs no link.
  void deliver_local(SimTime now, const Message& m) { queue_.push(now, m); }

  /// A local timer: deliver `m` back to its own node after `delay`. In
  /// the simulated world a timer is just a scheduled self-delivery.
  void schedule(SimTime now, SimTime delay, const Message& m) {
    queue_.push(now + delay, m);
  }

  /// The event schedule, exposed to the drive loop only — protocol
  /// handlers never touch it.
  [[nodiscard]] MessageQueue& queue() noexcept { return queue_; }

  [[nodiscard]] const LatencyModel& latency() const noexcept {
    return latency_;
  }
  [[nodiscard]] const LinkCounters& links() const noexcept { return links_; }

 private:
  LatencyModel latency_;
  rng::DefaultEngine gen_;
  MessageQueue queue_;
  LinkCounters links_;
};

}  // namespace geochoice::net
