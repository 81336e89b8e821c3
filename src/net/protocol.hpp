// protocol.hpp — the per-node protocol decisions of the wire-level DHT.
//
// NodeLogic and ClientDriver (node.hpp) are the one implementation of the
// protocol; NetSimulator runs them over SimTransport and the served
// cluster over UdpTransport. This file holds the kernels they call —
// which candidate a client places at, what each message carries, which
// kinds are requests — kept apart from the node state so each rule is
// written once.
//
// Message-construction rules the builders pin down:
//   * replies inherit the request's fields (op, key, probe, slot, hops)
//     and retarget `at` to the client, so the client can match them to
//     its in-flight op record without any lookup table;
//   * a probe reply's `from` is the candidate owner's node id — that is
//     how the client learns the address it later sends kPlace to
//     directly;
//   * kPlace echoes the load the client acted on, so the owner can
//     detect placements made on stale information.
#pragma once

#include <cstdint>

#include "core/tie_breaking.hpp"
#include "net/message.hpp"
#include "obs/trace.hpp"
#include "rng/distributions.hpp"
#include "rng/splitmix64.hpp"
#include "rng/xoshiro256.hpp"

namespace geochoice::net::protocol {

/// Census probes (a client reading every node's final load) mark the
/// otherwise-unused probe index 0xff; insert probes use 0 .. d-1 < 16.
inline constexpr std::uint8_t kCensusProbe = 0xff;

/// The request/reply split NodeHost::deliver (host.hpp) dispatches on:
/// requests go to the addressed node's NodeLogic, replies and acks to the
/// ClientDriver that issued the op.
[[nodiscard]] constexpr bool is_request(MsgType t) noexcept {
  return t == MsgType::kProbe || t == MsgType::kPlace ||
         t == MsgType::kLookup || t == MsgType::kPut || t == MsgType::kGet;
}

/// The lifecycle record of `m` at `phase`, as `node` saw it at `ts_us`;
/// `from` is the other end of the hop. Every recorder in both worlds
/// writes this one schema.
[[nodiscard]] inline obs::TraceRecord trace_record(
    obs::TracePhase phase, const Message& m, double ts_us,
    std::uint32_t node, std::uint32_t from) noexcept {
  return {.ts_us = ts_us, .op = m.op, .node = node, .from = from,
          .client = m.client, .hops = m.hops, .load = m.load,
          .phase = phase, .msg_type = static_cast<std::uint8_t>(m.type)};
}

/// Pick the least-loaded candidate from d (owner, load) reply pairs.
/// Exactly run_process's comparison loop: ties resolved by the configured
/// strategy, kRandom consuming one uniform_below(tied) draw per tie seen
/// — the draw order the golden trace hashes pin. Region-measure ties
/// need arc sizes the wire does not carry and must be rejected upstream.
template <typename Rng>
[[nodiscard]] inline int pick_best_candidate(const std::uint32_t* owners,
                                             const std::uint32_t* loads,
                                             int choices, core::TieBreak tie,
                                             Rng& ties) {
  int best = 0;
  std::uint32_t best_load = loads[0];
  std::uint32_t tied = 1;
  for (int j = 1; j < choices; ++j) {
    const auto js = static_cast<std::size_t>(j);
    const std::uint32_t load = loads[js];
    if (load < best_load) {
      best = j;
      best_load = load;
      tied = 1;
      continue;
    }
    if (load > best_load) continue;
    switch (tie) {
      case core::TieBreak::kRandom:
        ++tied;
        if (rng::uniform_below(ties, tied) == 0) best = j;
        break;
      case core::TieBreak::kFirstChoice:
        break;
      case core::TieBreak::kLowestIndex:
        if (owners[js] < owners[static_cast<std::size_t>(best)]) best = j;
        break;
      default:
        break;  // region ties rejected before any message is sent
    }
  }
  return best;
}

/// Probe for candidate `probe_idx` of insert `op`, keyed at `key`, issued
/// by `client`. `dest` caches successor(key) so forwarding hops don't
/// re-run the search; `slot` is the client's packed op-pool handle.
[[nodiscard]] inline Message make_probe(std::uint32_t client, std::uint64_t op,
                                        std::uint8_t probe_idx, double key,
                                        std::uint32_t dest,
                                        std::uint64_t slot) noexcept {
  Message m;
  m.type = MsgType::kProbe;
  m.at = client;
  m.from = client;
  m.client = client;
  m.op = op;
  m.probe = probe_idx;
  m.key = key;
  m.dest = dest;
  m.slot = slot;
  return m;
}

/// Lookup for `key` issued by `client`.
[[nodiscard]] inline Message make_lookup(std::uint32_t client,
                                         std::uint64_t op, double key,
                                         std::uint32_t dest,
                                         std::uint64_t slot) noexcept {
  Message m;
  m.type = MsgType::kLookup;
  m.at = client;
  m.from = client;
  m.client = client;
  m.op = op;
  m.key = key;
  m.dest = dest;
  m.slot = slot;
  return m;
}

/// The owner's answer to an arrived probe: retarget to the client, stamp
/// the owner's address and its load at reply time. `probe.at` must
/// already be the owner.
[[nodiscard]] inline Message make_probe_reply(const Message& probe,
                                              std::uint32_t load) noexcept {
  Message r = probe;
  r.type = MsgType::kProbeReply;
  r.at = probe.client;
  r.from = probe.at;
  r.load = load;
  return r;
}

/// The client's placement at the chosen candidate: direct (the probe
/// reply taught the client the owner's address), echoing the load the
/// decision was based on.
[[nodiscard]] inline Message make_place(std::uint32_t client,
                                        std::uint64_t op, std::uint8_t probe,
                                        std::uint32_t owner,
                                        std::uint32_t observed_load,
                                        std::uint64_t slot) noexcept {
  Message m;
  m.type = MsgType::kPlace;
  m.at = owner;
  m.from = client;
  m.client = client;
  m.op = op;
  m.probe = probe;
  m.load = observed_load;
  m.slot = slot;
  return m;
}

/// The owner's acknowledgment of a placement. `place.at` is the owner.
[[nodiscard]] inline Message make_place_ack(const Message& place) noexcept {
  Message ack = place;
  ack.type = MsgType::kPlaceAck;
  ack.at = place.client;
  ack.from = place.at;
  return ack;
}

/// The owner's answer to an arrived lookup. `lookup.at` is the owner.
[[nodiscard]] inline Message make_lookup_reply(const Message& lookup) noexcept {
  Message r = lookup;
  r.type = MsgType::kLookupReply;
  r.at = lookup.client;
  r.from = lookup.at;
  return r;
}

/// Deterministic value bytes for store key id `key_id`: derived by a
/// fixed mix, never drawn, so the store phase consumes no extra RNG and
/// both worlds (simulator and cluster) write — and can verify — the same
/// value for the same key.
[[nodiscard]] inline std::uint64_t store_value(std::uint64_t key_id) noexcept {
  return rng::mix64(key_id + 0x9e3779b97f4a7c15ULL);
}

/// The client's value write for store key id `key_id`, sent directly to
/// the owner the placement phase chose (the recorded placements taught
/// the client the address); a put's op id IS its key id. `value` carries
/// the bytes; the write is an idempotent overwrite, so a retransmit
/// needs no owner-side dedup.
[[nodiscard]] inline Message make_put(std::uint32_t client,
                                      std::uint32_t owner,
                                      std::uint64_t key_id,
                                      std::uint64_t value,
                                      std::uint64_t slot) noexcept {
  Message m;
  m.type = MsgType::kPut;
  m.at = owner;
  m.from = client;
  m.client = client;
  m.op = key_id;
  m.slot = slot;
  m.value = value;
  return m;
}

/// The owner's acknowledgment of a put. `put.at` is the owner.
[[nodiscard]] inline Message make_put_ack(const Message& put) noexcept {
  Message ack = put;
  ack.type = MsgType::kPutAck;
  ack.at = put.client;
  ack.from = put.at;
  return ack;
}

/// The client's value read for store key id `key_id`, sent directly to
/// the owner it placed the key at. `value` carries the key id on the
/// request; the reply overwrites it with the stored bytes.
[[nodiscard]] inline Message make_get(std::uint32_t client, std::uint64_t op,
                                      std::uint32_t owner,
                                      std::uint64_t key_id,
                                      std::uint64_t slot) noexcept {
  Message m;
  m.type = MsgType::kGet;
  m.at = owner;
  m.from = client;
  m.client = client;
  m.op = op;
  m.slot = slot;
  m.value = key_id;
  return m;
}

/// The owner's answer to an arrived get: the stored value (probe = 1) or
/// a miss (probe = 0, value untouched). `get.at` is the owner.
[[nodiscard]] inline Message make_get_reply(const Message& get, bool hit,
                                            std::uint64_t value) noexcept {
  Message r = get;
  r.type = MsgType::kGetReply;
  r.at = get.client;
  r.from = get.at;
  r.probe = hit ? 1 : 0;
  if (hit) r.value = value;
  return r;
}

/// Chord path length of a completed lookup: finger-table consultations
/// that forwarded the query. The query is *resolved* at the owner's
/// predecessor; the final delivery hop is wire cost, not routing work —
/// this is the quantity the 1/2 * log2(n) prediction describes.
[[nodiscard]] inline double route_hops_of(std::uint32_t hops) noexcept {
  return hops == 0 ? 0.0 : static_cast<double>(hops - 1);
}

}  // namespace geochoice::net::protocol
