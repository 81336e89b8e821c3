// test_node_logic.cpp — the client/server protocol halves against a fake
// transport, no sockets and no simulator.
//
// The FakeTransport records every send and every armed alarm, and hands
// time control to the test, which makes two things directly pinnable
// that the integration suites only observe in aggregate:
//
//   * the retransmit accounting split: a workload alarm (probe / place /
//     lookup resend) bumps data_retransmits, a census re-probe bumps
//     census_retries, and never each other's counter;
//   * the message-lifecycle trace hooks: scheduled / forwarded /
//     delivered / retransmitted events land in an attached
//     obs::TraceRecorder with the fields the Chrome export needs.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/tie_breaking.hpp"
#include "net/host.hpp"
#include "net/node.hpp"
#include "obs/registry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace geochoice;

constexpr std::uint64_t kSeed = 0x6e6f64656c6f67ULL;  // "nodelog"

/// Transport test double: sends append to a vector, schedule() hands back
/// an index into a parallel alarm list, time is a settable counter.
struct FakeTransport {
  struct Timer {
    std::size_t id = static_cast<std::size_t>(-1);
  };

  std::uint32_t self_id = 0;
  std::uint64_t t_us = 0;
  std::vector<net::Message> sent;
  std::vector<std::pair<std::uint64_t, net::Message>> alarms;
  std::vector<bool> alarm_armed;

  [[nodiscard]] std::uint32_t self() const noexcept { return self_id; }
  [[nodiscard]] std::uint64_t now_us() const noexcept { return t_us; }
  void send(const net::Message& m) { sent.push_back(m); }
  Timer schedule(std::uint64_t delay_ms, const net::Message& payload) {
    alarms.emplace_back(t_us + delay_ms * 1000, payload);
    alarm_armed.push_back(true);
    return Timer{alarms.size() - 1};
  }
  [[nodiscard]] bool armed(Timer t) const {
    return t.id < alarm_armed.size() && alarm_armed[t.id];
  }
  void cancel(Timer t) {
    if (t.id < alarm_armed.size()) alarm_armed[t.id] = false;
  }

  /// Count of sent messages of one type.
  [[nodiscard]] std::size_t sent_of(net::MsgType type) const {
    std::size_t n = 0;
    for (const auto& m : sent) n += m.type == type ? 1 : 0;
    return n;
  }
};

net::DriverConfig driver_config(std::uint64_t inserts, std::uint64_t lookups) {
  net::DriverConfig cfg;
  cfg.inserts = inserts;
  cfg.lookups = lookups;
  cfg.choices = 2;
  cfg.window = 1;
  cfg.tie = core::TieBreak::kFirstChoice;
  cfg.seed = kSeed;
  cfg.retransmit_ms = 50;
  return cfg;
}

TEST(NodeLogicDriver, ProbeAlarmCountsAsDataRetransmit) {
  const auto ring = net::make_ring(4, kSeed, 0);
  FakeTransport transport;
  auto cfg = driver_config(/*inserts=*/1, /*lookups=*/0);
  net::ClientDriver<FakeTransport> driver(ring, cfg, transport);

  driver.start();
  // One insert in flight: d probes out, one retransmit alarm armed.
  ASSERT_EQ(transport.sent_of(net::MsgType::kProbe), 2u);
  ASSERT_EQ(transport.alarms.size(), 1u);
  ASSERT_EQ(transport.alarms[0].second.type, net::MsgType::kProbe);

  // The alarm fires with no replies landed: both probes resend, and the
  // op counts exactly one *data* retransmit — the census counter must
  // not move.
  driver.on_timer(transport.alarms[0].second);
  EXPECT_EQ(driver.report().data_retransmits, 1u);
  EXPECT_EQ(driver.report().census_retries, 0u);
  EXPECT_EQ(driver.report().total_retransmits(), 1u);
  EXPECT_EQ(transport.sent_of(net::MsgType::kProbe), 4u);
}

TEST(NodeLogicDriver, CensusAlarmCountsAsCensusRetry) {
  const auto ring = net::make_ring(3, kSeed, 0);
  FakeTransport transport;
  // Empty workload: start() goes straight to the census.
  auto cfg = driver_config(/*inserts=*/0, /*lookups=*/0);
  net::ClientDriver<FakeTransport> driver(ring, cfg, transport);

  driver.start();
  ASSERT_EQ(transport.sent_of(net::MsgType::kProbe), 1u);  // census probe
  ASSERT_EQ(transport.alarms.size(), 1u);
  ASSERT_EQ(transport.alarms[0].second.type, net::MsgType::kProbeReply);

  // The census alarm is a read-only re-probe: census_retries moves,
  // data_retransmits does not.
  driver.on_timer(transport.alarms[0].second);
  EXPECT_EQ(driver.report().census_retries, 1u);
  EXPECT_EQ(driver.report().data_retransmits, 0u);
  EXPECT_EQ(driver.report().total_retransmits(), 1u);
  EXPECT_EQ(transport.sent_of(net::MsgType::kProbe), 2u);
}

TEST(NodeLogicDriver, TraceRecordsScheduledAndRetransmitted) {
  const auto ring = net::make_ring(4, kSeed, 0);
  FakeTransport transport;
  obs::TraceRecorder rec;
  auto cfg = driver_config(/*inserts=*/1, /*lookups=*/0);
  cfg.trace = &rec;
  net::ClientDriver<FakeTransport> driver(ring, cfg, transport);

  driver.start();
  driver.on_timer(transport.alarms[0].second);

  if (!obs::compiled_in()) {
    EXPECT_EQ(rec.size(), 0u);  // stub recorder: record() is a no-op
    return;
  }
  // d = 2 probes scheduled, then both retransmitted by the alarm.
  const auto records = rec.records();
  ASSERT_EQ(records.size(), 4u);
  EXPECT_EQ(records[0].phase, obs::TracePhase::kScheduled);
  EXPECT_EQ(records[1].phase, obs::TracePhase::kScheduled);
  EXPECT_EQ(records[2].phase, obs::TracePhase::kRetransmit);
  EXPECT_EQ(records[3].phase, obs::TracePhase::kRetransmit);
  for (const auto& r : records) {
    EXPECT_EQ(r.msg_type, static_cast<std::uint8_t>(net::MsgType::kProbe));
    EXPECT_EQ(r.op, 0u);
    EXPECT_EQ(r.from, transport.self());
  }
}

TEST(NodeLogicServer, ForwardAndDeliverHitTheTrace) {
  const auto ring = net::make_ring(8, kSeed, 0);
  obs::TraceRecorder rec;

  // A probe keyed at node 0's own ring position: delivered at node 0,
  // forwarded (not answered) by any other node.
  net::Message probe;
  probe.type = net::MsgType::kProbe;
  probe.key = ring.node_id(0);
  probe.dest = 0;
  probe.client = 0;

  FakeTransport at_owner;
  net::NodeLogic<FakeTransport> owner(ring, 0, at_owner, &rec);
  probe.at = 0;
  owner.on_message(probe);
  ASSERT_EQ(at_owner.sent.size(), 1u);
  EXPECT_EQ(at_owner.sent[0].type, net::MsgType::kProbeReply);

  FakeTransport at_relay;
  at_relay.self_id = 3;
  net::NodeLogic<FakeTransport> relay(ring, 3, at_relay, &rec);
  probe.at = 3;
  relay.on_message(probe);
  ASSERT_EQ(at_relay.sent.size(), 1u);
  EXPECT_EQ(at_relay.sent[0].type, net::MsgType::kProbe);
  EXPECT_EQ(at_relay.sent[0].hops, 1u);

  if (!obs::compiled_in()) {
    EXPECT_EQ(rec.size(), 0u);
    return;
  }
  const auto records = rec.records();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].phase, obs::TracePhase::kDelivered);
  EXPECT_EQ(records[0].node, 0u);
  EXPECT_EQ(records[1].phase, obs::TracePhase::kForwarded);
  EXPECT_EQ(records[1].node, 3u);
  EXPECT_EQ(records[1].hops, 1u);
}

TEST(NodeLogicServer, DuplicatePlaceBumpsLoadOnce) {
  const auto ring = net::make_ring(2, kSeed, 0);
  FakeTransport transport;
  net::NodeLogic<FakeTransport> node(ring, 0, transport);

  net::Message place;
  place.type = net::MsgType::kPlace;
  place.at = 0;
  place.client = 1;
  place.op = 7;
  place.load = 0;

  node.on_message(place);
  node.on_message(place);  // the retransmitted duplicate
  EXPECT_EQ(node.load(), 1u);
  EXPECT_EQ(transport.sent_of(net::MsgType::kPlaceAck), 2u);  // ack resent
}

TEST(NodeLogicServer, AtMostOnceHoldsForEveryPlacement) {
  // The dedup set keeps every placement it applied, not a recent window:
  // a retransmit of the first of 5,000 placements is acked and not
  // counted.
  const auto ring = net::make_ring(2, kSeed, 0);
  FakeTransport transport;
  net::NodeLogic<FakeTransport> node(ring, 0, transport);

  net::Message place;
  place.type = net::MsgType::kPlace;
  place.at = 0;
  place.client = 1;
  constexpr std::uint64_t kPlacements = 5000;
  for (std::uint64_t op = 0; op < kPlacements; ++op) {
    place.op = op;
    place.load = static_cast<std::uint32_t>(op);
    node.on_message(place);
  }
  ASSERT_EQ(node.load(), kPlacements);

  place.op = 0;
  place.load = 0;
  node.on_message(place);
  EXPECT_EQ(node.load(), kPlacements);
  EXPECT_EQ(transport.sent_of(net::MsgType::kPlaceAck), kPlacements + 1);
  EXPECT_EQ(transport.sent.back().type, net::MsgType::kPlaceAck);
  EXPECT_EQ(transport.sent.back().op, 0u);
  EXPECT_EQ(node.stale_reads(), 0u);
}

}  // namespace
