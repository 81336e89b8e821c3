#include "net/udp_transport.hpp"

#include <netinet/in.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

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

}  // namespace

UdpTransport::UdpTransport(std::uint32_t self, std::uint16_t port)
    : self_(self), epoch_ns_(monotonic_ns()) {
  fd_ = socket(AF_INET, SOCK_DGRAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd_ < 0) throw_errno("UdpTransport: socket");
  sockaddr_in addr = to_sockaddr(Endpoint{0x7f000001u, port});
  if (bind(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const int saved = errno;
    close(fd_);
    errno = saved;
    throw_errno("UdpTransport: bind");
  }
  socklen_t len = sizeof(addr);
  if (getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    const int saved = errno;
    close(fd_);
    errno = saved;
    throw_errno("UdpTransport: getsockname");
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
  std::uint8_t buf[wire::kFrameSize + 16];  // oversized frames must fail decode
  for (;;) {
    const ssize_t n = recvfrom(fd_, buf, sizeof(buf), 0, nullptr, nullptr);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return false;
      throw_errno("UdpTransport: recvfrom");
    }
    auto decoded = wire::decode(buf, static_cast<std::size_t>(n));
    if (!decoded) {
      ++malformed_;
      continue;  // hostile or truncated datagram: drop, keep serving
    }
    out = *decoded;
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
