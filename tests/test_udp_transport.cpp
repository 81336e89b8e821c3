// test_udp_transport.cpp — UdpTransport's batching contract on real
// loopback sockets: send() only queues, poll() drains the socket and
// then writes one (GSO) sendmsg per destination, the receiver reads each
// bundle whole (GRO) and cuts it by the segment size the kernel reports,
// self-addressed messages never reach the socket, and any segment that
// is not exactly one 64-byte frame is counted as malformed and
// dispatched to nobody.
//
// Sandboxes without socket permission skip (std::system_error from
// socket/bind), like UdpCluster.*.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/udp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <memory>
#include <system_error>
#include <vector>

#include "net/udp_transport.hpp"
#include "net/wire.hpp"

namespace {

using namespace geochoice;
using net::Message;
using net::MsgType;
using net::UdpTransport;

/// Two transports, nodes 0 and 1, that know each other's ports.
struct Pair {
  std::unique_ptr<UdpTransport> a, b;
};

/// False when this sandbox refuses sockets.
bool bind_pair(Pair& p) {
  try {
    p.a = std::make_unique<UdpTransport>(0, 0);
    p.b = std::make_unique<UdpTransport>(1, 0);
  } catch (const std::system_error&) {
    return false;
  }
  const std::vector<net::Endpoint> peers{{0x7f000001u, p.a->port()},
                                         {0x7f000001u, p.b->port()}};
  p.a->set_peers(peers);
  p.b->set_peers(peers);
  return true;
}

Message put_to(std::uint32_t at, std::uint64_t op) {
  Message m;
  m.type = MsgType::kPut;
  m.at = at;
  m.from = at == 0 ? 1 : 0;
  m.client = m.from;
  m.op = op;
  m.value = op * 3 + 1;
  return m;
}

/// Poll `t` until it has dispatched `want` messages (or counted `want`
/// malformed datagrams when `malformed` is set), giving up after a
/// second. Returns the dispatched messages.
std::vector<Message> receive(UdpTransport& t, std::size_t want,
                             bool malformed = false) {
  std::vector<Message> got;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while ((malformed ? t.malformed() : got.size()) < want &&
         std::chrono::steady_clock::now() < deadline) {
    t.poll(
        10, [&](const Message& m) { got.push_back(m); },
        [](const Message&) {});
  }
  return got;
}

/// A plain UDP socket on 127.0.0.1 that is not a transport.
class RawSocket {
 public:
  RawSocket() : fd_(socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0)) {}
  ~RawSocket() {
    if (fd_ >= 0) close(fd_);
  }
  RawSocket(const RawSocket&) = delete;
  RawSocket& operator=(const RawSocket&) = delete;

  /// One sendmsg of `len` bytes to 127.0.0.1:`port`, cut into
  /// `segment`-byte datagrams by UDP GSO when `segment` > 0. Returns
  /// errno, 0 on success.
  int send(std::uint16_t port, const std::uint8_t* data, std::size_t len,
           std::uint16_t segment = 0) const {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(0x7f000001u);
    addr.sin_port = htons(port);
    iovec iov{const_cast<std::uint8_t*>(data), len};
    msghdr msg{};
    msg.msg_name = &addr;
    msg.msg_namelen = sizeof(addr);
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    alignas(cmsghdr) unsigned char control[CMSG_SPACE(sizeof(segment))]{};
    if (segment > 0) {
      msg.msg_control = control;
      msg.msg_controllen = sizeof(control);
      cmsghdr* c = CMSG_FIRSTHDR(&msg);
      c->cmsg_level = SOL_UDP;
      c->cmsg_type = UDP_SEGMENT;
      c->cmsg_len = CMSG_LEN(sizeof(segment));
      std::memcpy(CMSG_DATA(c), &segment, sizeof(segment));
    }
    return sendmsg(fd_, &msg, 0) < 0 ? errno : 0;
  }

 private:
  int fd_;
};

TEST(UdpTransport, SendsPastTheOutboxCapArriveCompleteAndInOrder) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  constexpr std::uint64_t kSends = 150;
  static_assert(kSends > UdpTransport::kMaxSegments);
  for (std::uint64_t i = 0; i < kSends; ++i) p.a->send(put_to(1, i));
  // Two full outboxes were written by the sends that found them full;
  // the last 22 frames wait for a poll.
  EXPECT_EQ(p.a->send_calls(), 2u);
  p.a->poll(0, [](const Message&) {}, [](const Message&) {});
  EXPECT_EQ(p.a->send_calls(), 3u);

  const std::vector<Message> got = receive(*p.b, kSends);
  ASSERT_EQ(got.size(), kSends);
  for (std::uint64_t i = 0; i < kSends; ++i) {
    EXPECT_EQ(got[i].op, i);
    EXPECT_EQ(got[i].type, MsgType::kPut);
    EXPECT_EQ(got[i].value, i * 3 + 1);
  }
  EXPECT_EQ(p.a->links().total, kSends);
  EXPECT_EQ(p.a->self_delivered(), 0u);
  // Each bundle arrived whole: one recvmsg per sendmsg.
  EXPECT_EQ(p.b->recv_calls(), 3u);
  EXPECT_EQ(p.b->datagrams_in(), kSends);
  EXPECT_EQ(p.b->malformed(), 0u);
  EXPECT_EQ(p.a->malformed(), 0u);
}

TEST(UdpTransport, SelfAddressedSendsAreHandledInTheSamePoll) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  // Node 1 asks node 0 for op 10 over the socket; node 0 answers each op
  // below 13 by sending op + 1 to itself. The whole chain runs inside
  // node 0's one poll().
  p.b->send(put_to(0, 10));
  p.b->poll(0, [](const Message&) {}, [](const Message&) {});
  ASSERT_EQ(p.b->send_calls(), 1u);

  std::vector<std::uint64_t> seen;
  const auto handle = [&](const Message& m) {
    seen.push_back(m.op);
    if (m.op < 13) p.a->send(put_to(0, m.op + 1));
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(1);
  while (seen.empty() && std::chrono::steady_clock::now() < deadline) {
    p.a->poll(10, handle, [](const Message&) {});
  }
  EXPECT_EQ(seen, (std::vector<std::uint64_t>{10, 11, 12, 13}));
  EXPECT_EQ(p.a->self_delivered(), 3u);
  EXPECT_EQ(p.a->links().total, 3u);  // self sends still count as links
  EXPECT_EQ(p.a->send_calls(), 0u);   // ... but never reach the socket

  // Nothing was left behind in node 0's socket or queue.
  p.a->poll(0, handle, [](const Message&) {});
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(p.a->malformed(), 0u);
}

TEST(UdpTransport, SendsOutsidePollGoOutOnTheNextPoll) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  p.a->send(put_to(1, 7));
  EXPECT_EQ(p.a->send_calls(), 0u);
  std::size_t early = 0;
  p.b->poll(0, [&](const Message&) { ++early; }, [](const Message&) {});
  EXPECT_EQ(early, 0u);  // still in node 0's outbox

  // A positive timeout must not wait while a frame is unwritten: the poll
  // writes it and returns at once.
  const auto t0 = std::chrono::steady_clock::now();
  p.a->poll(200, [](const Message&) {}, [](const Message&) {});
  EXPECT_LT(std::chrono::steady_clock::now() - t0,
            std::chrono::milliseconds(150));
  EXPECT_EQ(p.a->send_calls(), 1u);

  const std::vector<Message> got = receive(*p.b, 1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0].op, 7u);
  EXPECT_EQ(got[0].at, 1u);
}

TEST(UdpTransport, WrongSizeDatagramsAreMalformed) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  RawSocket raw;
  const net::wire::Frame f = net::wire::encode(put_to(0, 5));
  std::uint8_t long_frame[net::wire::kFrameSize + 1]{};
  std::memcpy(long_frame, f.data(), f.size());
  ASSERT_EQ(raw.send(p.a->port(), f.data(), f.size() - 1), 0);
  ASSERT_EQ(raw.send(p.a->port(), long_frame, sizeof(long_frame)), 0);

  const std::vector<Message> got = receive(*p.a, 2, /*malformed=*/true);
  EXPECT_EQ(p.a->malformed(), 2u);
  EXPECT_TRUE(got.empty());
}

TEST(UdpTransport, ForeignGsoSegmentsAreMalformedOncePerSegment) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  RawSocket raw;
  // Two valid frames' bytes, cut by the kernel into four 32-byte halves:
  // each half is its own datagram, and none of them is a frame.
  std::uint8_t bytes[2 * net::wire::kFrameSize];
  const net::wire::Frame f0 = net::wire::encode(put_to(0, 1));
  const net::wire::Frame f1 = net::wire::encode(put_to(0, 2));
  std::memcpy(bytes, f0.data(), f0.size());
  std::memcpy(bytes + f0.size(), f1.data(), f1.size());
  ASSERT_EQ(raw.send(p.a->port(), bytes, sizeof(bytes), 32), 0);

  const std::vector<Message> got = receive(*p.a, 4, /*malformed=*/true);
  EXPECT_EQ(p.a->malformed(), 4u);
  EXPECT_TRUE(got.empty());
}

TEST(UdpTransport, ForeignBundleTailIsOneMalformedSegment) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  RawSocket raw;
  // Two frames and a 10-byte tail in one 64-byte-segment bundle: the
  // frames are dispatched in order, the short last segment is malformed.
  constexpr std::size_t kTail = 10;
  std::uint8_t bytes[2 * net::wire::kFrameSize + kTail]{};
  const net::wire::Frame f0 = net::wire::encode(put_to(0, 1));
  const net::wire::Frame f1 = net::wire::encode(put_to(0, 2));
  std::memcpy(bytes, f0.data(), f0.size());
  std::memcpy(bytes + f0.size(), f1.data(), f1.size());
  ASSERT_EQ(raw.send(p.a->port(), bytes, sizeof(bytes),
                     static_cast<std::uint16_t>(net::wire::kFrameSize)),
            0);

  const std::vector<Message> got = receive(*p.a, 1, /*malformed=*/true);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].op, 1u);
  EXPECT_EQ(got[1].op, 2u);
  EXPECT_EQ(p.a->malformed(), 1u);
  EXPECT_EQ(p.a->recv_calls(), 1u);
  EXPECT_EQ(p.a->datagrams_in(), 3u);
}

TEST(UdpTransport, EmptyDatagramIsMalformedOnce) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  RawSocket raw;
  const std::uint8_t none = 0;
  ASSERT_EQ(raw.send(p.a->port(), &none, 0), 0);

  const std::vector<Message> got = receive(*p.a, 1, /*malformed=*/true);
  EXPECT_EQ(p.a->malformed(), 1u);
  EXPECT_TRUE(got.empty());
  // The drain moved past it: a zero-timeout poll returns at once and
  // counts nothing more.
  p.a->poll(0, [](const Message&) {}, [](const Message&) {});
  EXPECT_EQ(p.a->malformed(), 1u);
  EXPECT_EQ(p.a->recv_calls(), 1u);
}

TEST(UdpTransport, TruncatedDatagramIsMalformedOnce) {
  Pair p;
  if (!bind_pair(p)) GTEST_SKIP() << "loopback sockets unavailable";
  RawSocket raw;
  // Datagrams longer than any bundle a transport writes: the receive
  // buffer cuts them (MSG_TRUNC), and each counts once, not once per
  // segment. First a plain one, then a bundle of 100-byte segments.
  std::vector<std::uint8_t> big(6000);
  const net::wire::Frame f = net::wire::encode(put_to(0, 3));
  for (std::size_t off = 0; off + f.size() <= big.size(); off += f.size()) {
    std::memcpy(big.data() + off, f.data(), f.size());
  }
  ASSERT_EQ(raw.send(p.a->port(), big.data(), big.size()), 0);
  ASSERT_EQ(raw.send(p.a->port(), big.data(), big.size(), 100), 0);

  const std::vector<Message> got = receive(*p.a, 2, /*malformed=*/true);
  p.a->poll(0, [](const Message&) {}, [](const Message&) {});
  EXPECT_EQ(p.a->malformed(), 2u);
  EXPECT_EQ(p.a->recv_calls(), 2u);
  EXPECT_TRUE(got.empty());
}

}  // namespace
