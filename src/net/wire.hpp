// wire.hpp — the fixed little-endian wire codec for net::Message.
//
// One 64-byte frame carries exactly one message. A datagram is one
// frame, or a UDP GSO bundle of frames that the receiver cuts by the
// segment size the kernel reports (udp_transport.hpp). Every field of
// Message (message.hpp) has a fixed offset in the frame, so encode/decode
// are straight byte shuffles with no varint or length-prefix logic. The
// format is versioned: a decoder that sees a magic or version it does
// not speak rejects the frame instead of guessing, which is what lets a
// future frame revision coexist on a port with this one. Version 2 grew
// the frame from 56 to 64 bytes for the store `value` field; v1 frames
// are rejected (a cluster always runs one binary on every node).
//
// Layout (all integers little-endian, doubles as IEEE-754 bit patterns):
//
//   offset  size  field
//        0     2  magic 0x4743 ("GC" little-endian)
//        2     1  version (= 2)
//        3     1  type (MsgType, 0..9)
//        4     4  at
//        8     4  from
//       12     4  client
//       16     8  op
//       24     1  probe
//       25     3  reserved, must be zero
//       28     4  hops
//       32     4  load
//       36     4  dest
//       40     8  key (bit pattern)
//       48     8  slot
//       56     8  value
//       --------
//       64 bytes total (kFrameSize)
//
// decode() is total: any buffer — wrong size, corrupt header, reserved
// bytes set, out-of-range type — returns nullopt without reading out of
// bounds, so a hostile datagram cannot take a node down. The codec is
// byte-order-explicit (shifts, not memcpy-of-struct), so frames are
// portable across hosts regardless of native endianness or padding.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <optional>

#include "net/message.hpp"

namespace geochoice::net::wire {

inline constexpr std::size_t kFrameSize = 64;
inline constexpr std::uint16_t kMagic = 0x4743;  // "GC"
inline constexpr std::uint8_t kVersion = 2;

using Frame = std::array<std::uint8_t, kFrameSize>;

namespace detail {

inline void put_u16(std::uint8_t* p, std::uint16_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

inline void put_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

inline void put_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  put_u32(p, static_cast<std::uint32_t>(v));
  put_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}

[[nodiscard]] inline std::uint16_t get_u16(const std::uint8_t* p) noexcept {
  return static_cast<std::uint16_t>(p[0] |
                                    (static_cast<std::uint16_t>(p[1]) << 8));
}

[[nodiscard]] inline std::uint32_t get_u32(const std::uint8_t* p) noexcept {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

[[nodiscard]] inline std::uint64_t get_u64(const std::uint8_t* p) noexcept {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

}  // namespace detail

/// Serialize `m` into a fixed 64-byte frame.
[[nodiscard]] inline Frame encode(const Message& m) noexcept {
  Frame f{};  // zero-fills the reserved bytes
  detail::put_u16(f.data() + 0, kMagic);
  f[2] = kVersion;
  f[3] = static_cast<std::uint8_t>(m.type);
  detail::put_u32(f.data() + 4, m.at);
  detail::put_u32(f.data() + 8, m.from);
  detail::put_u32(f.data() + 12, m.client);
  detail::put_u64(f.data() + 16, m.op);
  f[24] = m.probe;
  detail::put_u32(f.data() + 28, m.hops);
  detail::put_u32(f.data() + 32, m.load);
  detail::put_u32(f.data() + 36, m.dest);
  detail::put_u64(f.data() + 40, std::bit_cast<std::uint64_t>(m.key));
  detail::put_u64(f.data() + 48, m.slot);
  detail::put_u64(f.data() + 56, m.value);
  return f;
}

/// Parse a received buffer. Returns nullopt — never reads out of bounds,
/// never throws — for anything that is not a well-formed v2 frame:
/// wrong length, wrong magic, unknown version, out-of-range type, or
/// nonzero reserved bytes.
[[nodiscard]] inline std::optional<Message> decode(const std::uint8_t* data,
                                                   std::size_t len) noexcept {
  if (len != kFrameSize || data == nullptr) return std::nullopt;
  if (detail::get_u16(data) != kMagic) return std::nullopt;
  if (data[2] != kVersion) return std::nullopt;
  if (data[3] >= kMsgTypeCount) return std::nullopt;
  if (data[25] != 0 || data[26] != 0 || data[27] != 0) return std::nullopt;
  Message m;
  m.type = static_cast<MsgType>(data[3]);
  m.at = detail::get_u32(data + 4);
  m.from = detail::get_u32(data + 8);
  m.client = detail::get_u32(data + 12);
  m.op = detail::get_u64(data + 16);
  m.probe = data[24];
  m.hops = detail::get_u32(data + 28);
  m.load = detail::get_u32(data + 32);
  m.dest = detail::get_u32(data + 36);
  m.key = std::bit_cast<double>(detail::get_u64(data + 40));
  m.slot = detail::get_u64(data + 48);
  m.value = detail::get_u64(data + 56);
  return m;
}

[[nodiscard]] inline std::optional<Message> decode(const Frame& f) noexcept {
  return decode(f.data(), f.size());
}

}  // namespace geochoice::net::wire
