#include "net/udp_transport.hpp"

#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <ctime>
#include <stdexcept>
#include <system_error>
#include <utility>

namespace geochoice::net {

namespace {

[[nodiscard]] std::uint64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

[[noreturn]] void throw_errno(const char* what) {
  throw std::system_error(errno, std::generic_category(), what);
}

[[nodiscard]] sockaddr_in to_sockaddr(const Endpoint& e) noexcept {
  sockaddr_in a{};
  a.sin_family = AF_INET;
  a.sin_addr.s_addr = htonl(e.ipv4);
  a.sin_port = htons(e.port);
  return a;
}

[[nodiscard]] bool enable_gro(int fd) noexcept {
  const int on = 1;
  return setsockopt(fd, SOL_UDP, UDP_GRO, &on, sizeof(on)) == 0;
}

/// One unbound UDP_GRO socket, open from the first transport's
/// construction to process exit, so the kernel's UDP encap static key
/// never drops to zero between transports (see udp_transport.hpp).
/// Best effort: without it sockets still work, they open and close slower.
class GroKeyHolder {
 public:
  GroKeyHolder() : fd_(socket(AF_INET, SOCK_DGRAM | SOCK_CLOEXEC, 0)) {
    if (fd_ >= 0 && !enable_gro(fd_)) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~GroKeyHolder() {
    if (fd_ >= 0) close(fd_);
  }
  GroKeyHolder(const GroKeyHolder&) = delete;
  GroKeyHolder& operator=(const GroKeyHolder&) = delete;

 private:
  int fd_;
};

void hold_gro_key() { static const GroKeyHolder holder; }

}  // namespace

UdpTransport::UdpTransport(std::uint32_t self, std::uint16_t port)
    : self_(self), epoch_ns_(monotonic_ns()) {
  hold_gro_key();
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("UdpTransport: socket");
  const auto fail = [this](const char* what) {
    const int saved = errno;
    close(fd_);
    errno = saved;
    throw_errno(what);
  };
  if (!enable_gro(fd_)) fail("UdpTransport: setsockopt(UDP_GRO)");
  sockaddr_in addr = to_sockaddr(Endpoint{0x7f000001u, port});
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    fail("UdpTransport: bind");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    fail("UdpTransport: getsockname");
  }
  port_ = ntohs(addr.sin_port);
}

UdpTransport::~UdpTransport() {
  if (fd_ >= 0) close(fd_);
}

void UdpTransport::set_peers(std::vector<Endpoint> peers) {
  peers_ = std::move(peers);
  outbox_.assign(peers_.size(), {});
  pending_.clear();
}

void UdpTransport::send(const Message& m) {
  if (m.at >= peers_.size()) {
    throw std::logic_error("UdpTransport::send: no endpoint for node " +
                           std::to_string(m.at));
  }
  links_.count(m.type);
  if (m.at == self_) {
    ++self_delivered_;
    local_.push_back(m);
    return;
  }
  std::vector<wire::Frame>& box = outbox_[m.at];
  if (box.empty()) {
    pending_.push_back(m.at);
  } else if (box.size() == kMaxSegments) {
    write_out(m.at);  // stays listed in pending_: the frame below refills it
  }
  box.push_back(wire::encode(m));
}

std::uint64_t UdpTransport::now_ms() const {
  return (monotonic_ns() - epoch_ns_) / 1'000'000ULL;
}

std::uint64_t UdpTransport::now_us() const {
  return (monotonic_ns() - epoch_ns_) / 1'000ULL;
}

void UdpTransport::wait_readable(int timeout_ms) {
  pollfd p{fd_, POLLIN, 0};
  if (::poll(&p, 1, timeout_ms) < 0 && errno != EINTR) {
    throw_errno("UdpTransport: poll");
  }
}

bool UdpTransport::recv_one(Message& out) {
  for (;;) {
    while (rx_pos_ < rx_len_) {
      const std::size_t len = std::min(rx_segment_, rx_len_ - rx_pos_);
      const std::uint8_t* segment = rx_ + rx_pos_;
      rx_pos_ += len;
      ++datagrams_in_;
      if (auto decoded = wire::decode(segment, len)) {
        out = *decoded;
        return true;
      }
      ++malformed_;  // hostile or truncated segment: drop, keep serving
    }
    if (!refill()) return false;
  }
}

bool UdpTransport::refill() {
  rx_pos_ = rx_len_ = 0;
  for (;;) {
    iovec iov{rx_, sizeof(rx_)};
    alignas(cmsghdr) unsigned char control[CMSG_SPACE(sizeof(int))]{};
    msghdr msg{};
    msg.msg_iov = &iov;
    msg.msg_iovlen = 1;
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    const ssize_t n = recvmsg(fd_, &msg, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      throw_errno("UdpTransport: recvmsg");
    }
    ++recv_calls_;
    // Empty, or longer than any bundle a transport writes: one foreign
    // datagram, counted once.
    if (n == 0 || (msg.msg_flags & MSG_TRUNC) != 0) {
      ++datagrams_in_;
      ++malformed_;
      continue;
    }
    rx_len_ = static_cast<std::size_t>(n);
    // A GRO bundle reports its segment size, the only cmsg this socket
    // asks for; a plain datagram is one segment.
    rx_segment_ = rx_len_;
    const cmsghdr* c = CMSG_FIRSTHDR(&msg);
    if (c != nullptr && c->cmsg_level == SOL_UDP && c->cmsg_type == UDP_GRO) {
      int segment = 0;
      std::memcpy(&segment, CMSG_DATA(c), sizeof(segment));
      if (segment > 0) rx_segment_ = static_cast<std::size_t>(segment);
    }
    return true;
  }
}

void UdpTransport::flush() {
  for (const std::uint32_t to : pending_) {
    // Empty only when a write of an earlier flush threw midway.
    if (!outbox_[to].empty()) write_out(to);
  }
  pending_.clear();
}

void UdpTransport::write_out(std::uint32_t to) {
  std::vector<wire::Frame>& box = outbox_[to];
  sockaddr_in addr = to_sockaddr(peers_[to]);
  iovec iov{box.data(), box.size() * wire::kFrameSize};
  msghdr msg{};
  msg.msg_name = &addr;
  msg.msg_namelen = sizeof(addr);
  msg.msg_iov = &iov;
  msg.msg_iovlen = 1;
  // Two or more frames: one GSO bundle the kernel cuts into kFrameSize
  // datagrams.
  alignas(cmsghdr) unsigned char control[CMSG_SPACE(sizeof(std::uint16_t))]{};
  if (box.size() > 1) {
    msg.msg_control = control;
    msg.msg_controllen = sizeof(control);
    cmsghdr* c = CMSG_FIRSTHDR(&msg);
    c->cmsg_level = SOL_UDP;
    c->cmsg_type = UDP_SEGMENT;
    c->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
    const auto segment = static_cast<std::uint16_t>(wire::kFrameSize);
    std::memcpy(CMSG_DATA(c), &segment, sizeof(segment));
  }
  int err = 0;
  do {
    ++send_calls_;
    err = sendmsg(fd_, &msg, 0) < 0 ? errno : 0;
  } while (err == EINTR);
  box.clear();
  // A full socket buffer or a transient kernel refusal drops the bundle —
  // exactly what a real network would do; the protocol's retransmit
  // timers own recovery.
  if (err != 0 && err != EAGAIN && err != EWOULDBLOCK && err != ENOBUFS &&
      err != ENOMEM) {
    errno = err;
    throw_errno("UdpTransport: sendmsg");
  }
}

}  // namespace geochoice::net
