// message.hpp — the typed wire protocol of the simulated DHT.
//
// Ten message types model the paper's two-choice insertion, Chord
// lookups, and value serving at wire granularity:
//
//   insert op:  kProbe        client -> (routed) candidate owner
//               kProbeReply   owner  -> client, carries the owner's load
//                             *at reply time* — by the time the client
//                             acts on it, in-flight placements may have
//                             made it stale
//               kPlace        client -> chosen owner (direct; the probe
//                             reply taught the client its address)
//               kPlaceAck     owner  -> client
//   lookup op:  kLookup       client -> (routed) key owner
//               kLookupReply  owner  -> client
//   store op:   kPut          client -> placed owner (direct; placement
//                             already taught the client the address).
//                             Idempotent overwrite, so a retransmitted
//                             put needs no dedup state on the owner.
//               kPutAck       owner  -> client
//               kGet          client -> owner (direct), value = key id
//               kGetReply     owner  -> client, value = stored bytes,
//                             probe = 1 hit / 0 miss
//
// Routed messages hop node-to-node along Chord fingers, one link delay and
// one `hops` increment per forward; direct messages cost a single link.
#pragma once

#include <cstdint>

#include "net/event_queue.hpp"

namespace geochoice::net {

enum class MsgType : std::uint8_t {
  kProbe = 0,
  kProbeReply,
  kPlace,
  kPlaceAck,
  kLookup,
  kLookupReply,
  kPut,
  kPutAck,
  kGet,
  kGetReply,
};

[[nodiscard]] constexpr const char* to_string(MsgType t) noexcept {
  switch (t) {
    case MsgType::kProbe:
      return "probe";
    case MsgType::kProbeReply:
      return "probe_reply";
    case MsgType::kPlace:
      return "place";
    case MsgType::kPlaceAck:
      return "place_ack";
    case MsgType::kLookup:
      return "lookup";
    case MsgType::kLookupReply:
      return "lookup_reply";
    case MsgType::kPut:
      return "put";
    case MsgType::kPutAck:
      return "put_ack";
    case MsgType::kGet:
      return "get";
    case MsgType::kGetReply:
      return "get_reply";
  }
  return "?";
}

inline constexpr int kMsgTypeCount = 10;

/// Largest d an insert may probe: candidate indices 0 .. d-1 fit below it.
inline constexpr int kMaxChoices = 16;

/// Fields are grouped by width (8-, then 4-, then 1-byte) so a Message
/// packs into one 64-byte cache line: the simulator moves one per event.
struct Message {
  /// Operation id: insert index or lookup index, per-kind namespaces.
  std::uint64_t op = 0;
  /// Ring position being routed toward (candidate or lookup key).
  double key = 0.0;
  /// Packed core::ObjectPool handle of the client's in-flight op record
  /// (insert or lookup, by message kind). Replies echo it back, giving the
  /// client O(1) generation-checked access to its op state with no map
  /// lookup. Deterministic (pool allocation order is), not hash-folded.
  std::uint64_t slot = 0;
  /// Store payload: the value bytes on kPut and kGetReply, the requested
  /// store key id on kGet. Like dest/slot it is derived data the handlers
  /// recompute deterministically, so it is not folded into the golden
  /// trace hash — pre-store configs keep their pinned hashes bit-exact.
  std::uint64_t value = 0;
  /// Node currently holding the message (the event's recipient).
  std::uint32_t at = 0;
  /// Sender of the most recent link traversal. A probe reply's `from` is
  /// the candidate's owner — that is how the client learns the address it
  /// later sends kPlace to directly.
  std::uint32_t from = 0;
  /// Operation originator (probe replies and acks return here).
  std::uint32_t client = 0;
  /// Forwarding hops accumulated so far (routed messages).
  std::uint32_t hops = 0;
  /// Load observed by the owner at reply time (kProbeReply), echoed back
  /// on kPlace so the owner can detect that the client acted on stale
  /// information.
  std::uint32_t load = 0;
  /// Routing destination: successor(key), resolved once at issue time and
  /// carried along so forwarding hops don't re-run the successor search.
  /// Purely a cache — next_hop() never reads it, so routing decisions are
  /// unchanged; it is not folded into the golden trace hash.
  std::uint32_t dest = 0;
  MsgType type = MsgType::kProbe;
  /// Candidate index within an insert op (0 .. d-1); unused for lookups.
  std::uint8_t probe = 0;

  friend bool operator==(const Message&, const Message&) = default;
};
static_assert(sizeof(Message) == 64);

using MessageQueue = EventQueue<Message>;

}  // namespace geochoice::net
