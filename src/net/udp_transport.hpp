// udp_transport.hpp — the real-world side of the net::Transport seam.
//
// Where SimTransport (transport.hpp) schedules a message on a calendar
// queue, UdpTransport encodes it with the fixed wire codec (wire.hpp)
// and hands it to the kernel in a UDP datagram to the destination
// node's socket; timers come from a TimerWheel ticked in milliseconds
// of CLOCK_MONOTONIC. One transport = one node = one nonblocking
// socket; addressing is by node id through a peer table the caller
// installs once the cluster's ports are known (ephemeral ports force
// the two-phase setup: bind everyone, learn the ports, then exchange
// the table).
//
// The surface mirrors SimTransport verb-for-verb — send one message to
// its `at` node, deliver locally, schedule a timer — so NodeLogic and
// the client driver (node.hpp) compile against either world unchanged.
// The one honest difference: the real world has no global clock, so
// poll() pumps the socket and the wheel instead of a drive loop popping
// a queue, and fired timers arrive through their own callback (a timer
// here is a local retransmit alarm, not a simulated event).
//
// What a message costs the kernel. On loopback a lone 64-byte frame
// costs ~2.5 us to send and ~0.5 us to receive, while the protocol's own
// work (two-choice pick, Chord next_hop, HashStore) is under 1 us per
// op, so the transport spends syscalls as sparingly as the protocol
// allows. (Figures from a 4-vCPU Xeon VM on Linux 6.18.)
//
//   * send() writes nothing. It encodes the frame into the destination's
//     outbox (at most kMaxSegments frames; a send that finds the outbox
//     full writes it first). poll() drains the socket, then writes each
//     non-empty outbox as one sendmsg carrying a UDP_SEGMENT cmsg of
//     wire::kFrameSize (UDP GSO; a lone frame goes as a plain datagram).
//     sendmmsg costs 2.1-2.5 us per frame, the same as sendto: the
//     per-datagram work under the syscall is the cost, not the syscall.
//     Writing once per poll, after the drain, is what fills the bundles:
//     writing after every received datagram put the window-32 poll cost
//     back at 10 us per op.
//   * Every socket has UDP_GRO on, so the kernel hands a bundle to the
//     receiver whole instead of cutting it into one datagram per frame.
//     One recvmsg reads it, and the drain cuts it into frames by the
//     segment size the kernel reports in a UDP_GRO cmsg (a datagram
//     without one is a single segment; the last segment may be short).
//     Per frame, a bundle of 8 costs ~0.4 us to send and ~0.1 us to
//     receive, against ~0.8 + ~0.65 us when the kernel splits it for a
//     receiver without GRO; a bundle of 32, ~0.1 + ~0.03 against ~0.5 +
//     ~0.65. Each segment that fails wire::decode counts once in
//     malformed(), as does an empty datagram and one too long for the
//     buffer (MSG_TRUNC): no transport sends either.
//   * The kernel static key is held for the life of the process.
//     Enabling UDP_GRO increments the kernel's UDP encap static key and
//     closing the socket decrements it; at 0 -> 1 and 1 -> 0 the kernel
//     patches its text. One unbound GRO socket, opened with the first
//     transport and closed at exit, keeps the key up. Opening and binding
//     4 sockets, then closing them (median of 400 batches):
//
//                               open      close
//         no GRO               11-12 us   4 us
//         GRO, key not held    41-45 us  32-34 us
//         GRO, key held        12-14 us   4 us
//
//     A cluster that stands up fresh sockets per run (the serve benchmark
//     builds one every round) would otherwise pay the middle row each time.
//   * A message addressed to this transport's own node (every op start of
//     a co-located ClientDriver, every reply node 0 sends it) never
//     touches the socket: it joins the deliver_local queue and is handled
//     within the same poll(), as the kernel round trip it replaces was
//     (the drain read it back before EAGAIN). Sent through the kernel and
//     written at the end of the poll, it would wait for the next poll:
//     that doubled window-1 polls per op (3.67 -> 7.38). It still counts
//     in links().
//   * A zero-timeout poll() makes no readiness call at all: the drain's
//     recvmsg returning EAGAIN is the readiness test. A positive timeout
//     waits in poll(2) on the one fd, and only when nothing is pending.
//     With one fd there is nothing for epoll to multiplex, and an epoll
//     instance costs a create, a ctl and a close per transport.
//
// What it deliberately does not do:
//
//   * No cheaper empty drain. recvmsg with a cmsg buffer costs ~325 ns
//     on an empty socket against ~255 ns for recvfrom, and ~615 ns
//     against ~485 ns to read one frame; GRO itself adds nothing to a
//     lone datagram. Window 1 has nothing to bundle (~1.05 frames per
//     sendmsg) and still ends every poll on an EAGAIN, ~3.5 per op, so
//     the serve benchmark's window-1 get p50 pays 5-16% (two sets of
//     paired runs) for window 32's 2.3x throughput. A readiness call
//     before the drain cannot win that back: it adds a syscall to every
//     poll that finds a datagram.
//   * No recvmmsg. With GRO a bundle is already one recvmsg, so recvmmsg
//     could only batch datagrams from different senders, and a drain
//     usually finds a few of those, not dozens. recvmmsg(64) costs ~490
//     ns on an empty socket, and a recvmmsg(64) drain measured window-1
//     get p50 and p90 10-24% worse than recvfrom.
//   * No fallback when GSO or GRO is refused. The socket binds 127.0.0.1,
//     where UDP GSO works on Linux >= 4.18 and UDP_GRO on >= 5.0; a
//     refused UDP_GRO throws std::system_error from the constructor, as a
//     refused bind does. EAGAIN, ENOBUFS and ENOMEM drop the bundle (the
//     retransmit timers recover, as they do for any lost datagram); any
//     other sendmsg error throws std::system_error.
//
// Thread model: single-threaded, like the node it serves. Everything —
// send, poll, timers — happens on the caller's one event-loop thread.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/message.hpp"
#include "net/timer_wheel.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"

namespace geochoice::net {

/// One peer's reachable address. Loopback clusters fill `port` from
/// getsockname() after binding port 0.
struct Endpoint {
  std::uint32_t ipv4 = 0x7f000001u;  // host byte order; default 127.0.0.1
  std::uint16_t port = 0;
};

class UdpTransport {
 public:
  using Timer = TimerWheel<Message>::Id;

  /// Frames per outbox, and so per sendmsg: the kernel's GSO segment cap
  /// (UDP_MAX_SEGMENTS) since Linux 4.18, the first with UDP_SEGMENT.
  static constexpr std::size_t kMaxSegments = 64;

  /// Bind a nonblocking UDP socket for node `self` on 127.0.0.1:`port`
  /// (0 = ephemeral; read the result back with port()). Throws
  /// std::system_error when the socket layer refuses.
  UdpTransport(std::uint32_t self, std::uint16_t port);
  ~UdpTransport();

  UdpTransport(const UdpTransport&) = delete;
  UdpTransport& operator=(const UdpTransport&) = delete;

  /// Node id → address table, indexed by id. Must cover every id this
  /// node will ever send to; installed once after all peers have bound.
  void set_peers(std::vector<Endpoint> peers);

  [[nodiscard]] std::uint32_t self() const noexcept { return self_; }
  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Queue one message to m.at: into the local queue when m.at is this
  /// node, else encoded into m.at's outbox, written by the next poll().
  /// Dropped datagrams are the network's business — reliability is the
  /// protocol's retransmit timers, not the transport's.
  void send(const Message& m);

  /// Local delivery without touching the wire: handed to on_message by
  /// the next (or the running) poll(), mirroring
  /// SimTransport::deliver_local.
  void deliver_local(const Message& m) { local_.push_back(m); }

  /// Arm a retransmit alarm: `m` comes back through poll()'s on_timer
  /// after `delay_ms`. Cancel with cancel() when the awaited reply
  /// arrives first (the common case).
  Timer schedule(std::uint64_t delay_ms, const Message& m) {
    return wheel_.schedule(delay_ms ? delay_ms : 1, m);
  }
  void cancel(Timer t) { wheel_.cancel(t); }
  [[nodiscard]] bool armed(Timer t) const noexcept { return wheel_.armed(t); }

  /// Pump one round. When nothing is pending (no local message, no
  /// unwritten frame) wait up to `timeout_ms` for a datagram (0 = don't
  /// wait, negative = no limit). Then dispatch local messages and
  /// received frames until both the local queue and the socket are empty
  /// — local messages queued by the handlers are dispatched in this same
  /// round — fire due timers, and write every outbox. Malformed segments
  /// are counted and dropped. on_message(const Message&),
  /// on_timer(const Message&).
  template <typename OnMessage, typename OnTimer>
  void poll(int timeout_ms, OnMessage&& on_message, OnTimer&& on_timer) {
    if (timeout_ms != 0 && local_.empty() && pending_.empty() &&
        rx_pos_ == rx_len_) {
      wait_readable(timeout_ms);
    }
    Message m;
    for (;;) {
      // Swap the queue out: handlers may queue more local messages while
      // this batch is being dispatched.
      while (!local_.empty()) {
        scratch_.clear();
        scratch_.swap(local_);
        for (const Message& l : scratch_) on_message(l);
      }
      if (!recv_one(m)) break;
      on_message(m);
    }
    wheel_.advance(now_ms(), [&](const Message& t) { on_timer(t); });
    flush();
  }

  /// Wire-cost counters, same meaning as SimTransport's: protocol sends,
  /// by message type, self-addressed ones included.
  [[nodiscard]] const LinkCounters& links() const noexcept { return links_; }
  /// Received segments that failed wire::decode (noise, truncation,
  /// version skew), plus empty and truncated datagrams, each counted
  /// once. A healthy loopback cluster keeps this at zero.
  [[nodiscard]] std::uint64_t malformed() const noexcept { return malformed_; }
  /// recvmsg calls that returned a datagram: datagrams_in() over this
  /// many calls is the bundling the senders' outboxes achieved.
  [[nodiscard]] std::uint64_t recv_calls() const noexcept {
    return recv_calls_;
  }
  /// Segments read from the socket, malformed ones included.
  [[nodiscard]] std::uint64_t datagrams_in() const noexcept {
    return datagrams_in_;
  }
  /// sendmsg calls made: links().total - self_delivered() frames over
  /// this many syscalls is the batching the outboxes achieved.
  [[nodiscard]] std::uint64_t send_calls() const noexcept {
    return send_calls_;
  }
  /// Sends addressed to this node, delivered without the socket.
  [[nodiscard]] std::uint64_t self_delivered() const noexcept {
    return self_delivered_;
  }

  /// Milliseconds of CLOCK_MONOTONIC since construction — the timer
  /// wheel's timebase, exposed for latency measurement.
  [[nodiscard]] std::uint64_t now_ms() const;
  /// Microseconds of CLOCK_MONOTONIC since construction (latency stats).
  [[nodiscard]] std::uint64_t now_us() const;

 private:
  /// poll(2) on the socket for up to timeout_ms; a signal ends the wait.
  void wait_readable(int timeout_ms);
  /// Decode the next segment of the receive buffer, refilling it from
  /// the socket when used up; false on EAGAIN (drained).
  bool recv_one(Message& out);
  /// One recvmsg into rx_ and its segment size; false on EAGAIN.
  bool refill();
  /// Write every non-empty outbox.
  void flush();
  /// Write node `to`'s outbox as one sendmsg and empty it.
  void write_out(std::uint32_t to);

  std::uint32_t self_;
  int fd_ = -1;
  std::uint16_t port_ = 0;
  std::uint64_t epoch_ns_ = 0;
  std::vector<Endpoint> peers_;
  /// Encoded frames per destination node, awaiting the next flush().
  std::vector<std::vector<wire::Frame>> outbox_;
  /// Destinations whose outbox is non-empty, each listed once.
  std::vector<std::uint32_t> pending_;
  std::vector<Message> local_;
  std::vector<Message> scratch_;
  TimerWheel<Message> wheel_;
  LinkCounters links_;
  std::uint64_t malformed_ = 0;
  std::uint64_t send_calls_ = 0;
  std::uint64_t self_delivered_ = 0;
  std::uint64_t recv_calls_ = 0;
  std::uint64_t datagrams_in_ = 0;
  /// The last datagram read, rx_[rx_pos_, rx_len_) still to decode in
  /// rx_segment_-byte segments. Room for the largest bundle a transport
  /// writes plus 16 bytes; anything longer arrives with MSG_TRUNC. Left
  /// uninitialized: only the bytes recvmsg wrote are ever read.
  std::size_t rx_len_ = 0;
  std::size_t rx_pos_ = 0;
  std::size_t rx_segment_ = 0;
  std::uint8_t rx_[kMaxSegments * wire::kFrameSize + 16];
};

}  // namespace geochoice::net
