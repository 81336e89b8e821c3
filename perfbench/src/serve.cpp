// serve.cpp — the `serve` workload: the served DHT path, closed loop.
//
// One ClientDriver and kNodes Chord NodeLogics share this process; each
// node has its own UdpTransport on 127.0.0.1 and one loop polls every
// transport with a zero timeout in a fixed order (run_loopback_cluster's
// loop without its 1 ms wait). Pumping in-process keeps cross-process
// scheduling out of the latency tails: the multi-process cluster's
// insert p99 ranged 112-284 us over six identical runs.
//
// A round stands up a fresh cluster and runs `keys` d=2 tie=first
// inserts, one put per key, then 2 * `keys` Zipf(0.9) gets, then the
// driver's load census. Phase w1 (1 op in flight) gives the latency gates,
// phase w32 (32 in flight) the throughput gate. The two phases' rounds
// interleave until each has used its half of --seconds, so both sample
// the whole run; each cycles through kRoundInputs inputs (ring and keys)
// drawn from the run seed. Rounds are small because each
// ring and its popular keys set how far a request travels around the
// pump loop: many small rounds average that out within a run. With
// 2048-key rounds the w1 p50s of ten seeds spread 10-16%; with 64-key
// rounds, 7%. The inputs cycle so that the w1 oracle, a sim::run call,
// runs once per input rather than once per round: each sim::run starts a
// thread whose obs sink (9 KB) lives as long as the process, and with an
// oracle call per round peak RSS grew with the number of rounds run.
//
// Latency is timed here with a ns clock: from the op's first datagram
// (stamped by the client's forwarding port) to the pump handing its
// final reply to the driver. Samples go into LatencyHistograms, whose
// memory is fixed up front, with one bin per window ns: 1-ns bins at w1
// (exact percentiles), 32-ns bins at w32, whose latencies are about 32
// times longer. The nodes run over the bare UdpTransport in untraced
// runs; traced runs put every node and the client on the forwarding
// port, which records a span per send.
#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "anchors.hpp"
#include "common.hpp"
#include "dht/chord.hpp"
#include "net/node.hpp"
#include "net/protocol.hpp"
#include "net/udp_transport.hpp"
#include "net/wire.hpp"
#include "rng/distributions.hpp"
#include "rng/streams.hpp"
#include "spans.hpp"
#include "store/hash_store.hpp"

namespace perfbench {
namespace {

using namespace geochoice;
using net::Message;
using net::MsgType;
using net::UdpTransport;

constexpr std::size_t kNodes = 4;
constexpr double kZipf = 0.9;
constexpr std::uint64_t kRoundTimeoutNs = 20'000'000'000ULL;
constexpr int kMinRounds = 3;
constexpr std::uint64_t kRoundInputs = 64;  // distinct inputs per phase
constexpr std::size_t kFrameSample = 4096;  // messages kept for codec timing
constexpr int kRepeats = 15;                // isolated timing repeats

struct PhaseSpec {
  const char* name;  // metric prefix and trace phase
  std::uint32_t window;
  std::uint64_t seed_part;
  std::uint64_t keys;  // inserts (and puts) per round; gets are twice that
  [[nodiscard]] std::uint64_t gets() const { return 2 * keys; }
  [[nodiscard]] std::uint64_t ops() const { return 2 * keys + gets(); }
  [[nodiscard]] std::string prefix() const { return std::string(name) + "."; }
};
constexpr PhaseSpec kW1{"w1", 1, 1, 64};
constexpr PhaseSpec kW32{"w32", 32, 2, 1024};

ReqKind kind_of(const Message& m) noexcept {
  switch (m.type) {
    case MsgType::kProbe:
    case MsgType::kProbeReply:
      return m.probe == net::protocol::kCensusProbe ? ReqKind::kCensus
                                                    : ReqKind::kInsert;
    case MsgType::kPlace:
    case MsgType::kPlaceAck:
      return ReqKind::kInsert;
    case MsgType::kPut:
    case MsgType::kPutAck:
      return ReqKind::kPut;
    case MsgType::kGet:
    case MsgType::kGetReply:
      return ReqKind::kGet;
    default:
      return ReqKind::kNone;
  }
}

bool is_request(MsgType t) noexcept {
  return t == MsgType::kProbe || t == MsgType::kPlace ||
         t == MsgType::kLookup || t == MsgType::kPut || t == MsgType::kGet;
}

/// Send time of each client op's first datagram, and the key each get
/// asked for (to check the bytes that come back).
struct OpStamps {
  std::vector<std::uint64_t> insert, put, get, get_key;

  OpStamps(std::uint64_t keys, std::uint64_t gets)
      : insert(keys, 0), put(keys, 0), get(gets, 0), get_key(gets, 0) {}

  void on_client_send(const Message& m) noexcept {
    switch (m.type) {
      case MsgType::kProbe:
        if (m.probe != net::protocol::kCensusProbe && m.op < insert.size() &&
            insert[m.op] == 0) {
          insert[m.op] = now_ns();
        }
        return;
      case MsgType::kPut:
        if (m.op < put.size() && put[m.op] == 0) put[m.op] = now_ns();
        return;
      case MsgType::kGet:
        if (m.op < get.size() && get[m.op] == 0) {
          get[m.op] = now_ns();
          get_key[m.op] = m.value;
        }
        return;
      default:
        return;
    }
  }
};

/// Forwarding transport (the template seam NodeLogic and ClientDriver
/// expose): stamps the client's first datagram per op and, when traced,
/// records a span around each UdpTransport::send. Timers, local
/// delivery and clocks forward unchanged.
template <bool kTraced>
class Port {
 public:
  using Timer = UdpTransport::Timer;

  Port(UdpTransport& udp, OpStamps* stamps, SpanRecorder* spans,
       std::vector<Message>* frames)
      : udp_(&udp), stamps_(stamps), spans_(spans), frames_(frames) {}

  void send(const Message& m) {
    if (stamps_ != nullptr) stamps_->on_client_send(m);
    if constexpr (kTraced) {
      if (frames_->size() < kFrameSample) frames_->push_back(m);
      Scope s(*spans_, Layer::kUdpSend, "UdpTransport::send", udp_->self(),
              kind_of(m), m.op);
      udp_->send(m);
    } else {
      udp_->send(m);
    }
  }
  void deliver_local(const Message& m) { udp_->deliver_local(m); }
  Timer schedule(std::uint64_t delay_ms, const Message& m) {
    return udp_->schedule(delay_ms, m);
  }
  void cancel(Timer t) { udp_->cancel(t); }
  [[nodiscard]] bool armed(Timer t) const noexcept { return udp_->armed(t); }
  [[nodiscard]] std::uint32_t self() const noexcept { return udp_->self(); }
  [[nodiscard]] std::uint64_t now_us() const { return udp_->now_us(); }

 private:
  UdpTransport* udp_;
  OpStamps* stamps_;
  SpanRecorder* spans_;
  std::vector<Message>* frames_;
};

/// Runs `fn` inside a span when traced; just runs it otherwise.
template <bool kTraced, typename Fn>
inline void in_span(SpanRecorder* rec, Layer layer, const char* name,
                    std::uint32_t tid, const Message* m, Fn&& fn) {
  if constexpr (kTraced) {
    Scope s(*rec, layer, name, tid, m ? kind_of(*m) : ReqKind::kNone,
            m ? m->op : 0);
    fn();
  } else {
    fn();
  }
}

/// Everything one phase measured, summed over its rounds.
struct PhaseTotals {
  explicit PhaseTotals(const PhaseSpec& ph)
      : insert_ns(ph.window), put_ns(ph.window), get_ns(ph.window),
        oracle(kRoundInputs) {}
  std::vector<double> setup_s;
  std::vector<double> ops_per_s;  // per round
  LatencyHistogram insert_ns, put_ns, get_ns;
  double measured_s = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t attempted = 0, completed = 0, failed = 0;
  std::uint64_t datagrams = 0, polls = 0, empty_polls = 0, delivered = 0;
  std::uint64_t retransmits = 0, malformed = 0;
  // traced rounds only
  std::array<std::uint64_t, kLayerCount> self_ns{};
  std::uint64_t top_ns = 0, wall_ns = 0;
  std::string failure;
  // w1: the simulator's placements per input, computed on first use
  std::vector<std::vector<std::uint32_t>> oracle;
};

/// Inputs of one round kept for the isolated layer timings.
struct RoundInputs {
  std::uint64_t seed = 0;
  std::vector<std::uint32_t> placements;
  std::vector<std::uint64_t> get_keys;
};

template <bool kTraced>
void run_round(const Options& opt, const PhaseSpec& ph, std::uint64_t input,
               PhaseTotals& tot, SpanRecorder* spans,
               std::vector<Message>* frames, RoundInputs* keep) {
  const std::uint64_t seed = derive_seed(opt.seed, ph.seed_part, input);
  using NodeT = std::conditional_t<kTraced, Port<true>, UdpTransport>;
  OpStamps stamps(ph.keys, ph.gets());

  const std::uint64_t t0 = now_ns();
  std::vector<std::unique_ptr<UdpTransport>> udp;
  udp.reserve(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    udp.push_back(
        std::make_unique<UdpTransport>(static_cast<std::uint32_t>(i), 0));
  }
  std::vector<net::Endpoint> peers;
  peers.reserve(kNodes);
  for (const auto& t : udp) peers.push_back(net::Endpoint{0x7f000001u, t->port()});
  for (auto& t : udp) t->set_peers(peers);
  auto gen = rng::make_stream(seed, 0, rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(kNodes, gen);
  ring.build_fingers();
  std::vector<Port<true>> node_ports;
  std::vector<net::NodeLogic<NodeT>> nodes;
  nodes.reserve(kNodes);
  node_ports.reserve(kTraced ? kNodes : 0);  // NodeLogic keeps their addresses
  for (std::size_t i = 0; i < kNodes; ++i) {
    const auto id = static_cast<std::uint32_t>(i);
    if constexpr (kTraced) {
      node_ports.emplace_back(*udp[i], nullptr, spans, frames);
      nodes.emplace_back(ring, id, node_ports.back());
    } else {
      nodes.emplace_back(ring, id, *udp[i]);
    }
  }
  Port<kTraced> client_port(*udp[0], &stamps, spans, frames);
  net::DriverConfig dc;
  dc.inserts = ph.keys;
  dc.choices = 2;
  dc.window = ph.window;
  dc.tie = core::TieBreak::kFirstChoice;
  dc.seed = seed;
  dc.trial = 0;
  dc.store_gets = ph.gets();
  dc.store_zipf_alpha = kZipf;
  net::ClientDriver<Port<kTraced>> driver(ring, dc, client_port);
  const std::uint64_t t1 = now_ns();

  if constexpr (kTraced) spans->reset_totals();
  const net::DriverReport& rep = driver.report();
  std::uint64_t polls = 0, empty = 0, delivered = 0, bad_gets = 0;
  std::string error;

  auto on_reply = [&](const Message& m) {
    const std::uint64_t t = now_ns();
    const bool get_ok =
        m.type != MsgType::kGetReply || m.op >= ph.gets() ||
        get_reply_correct(stamps.get_key[m.op], m.probe != 0, m.value);
    const std::uint64_t ins = rep.inserts, puts = rep.puts, gets = rep.gets;
    in_span<kTraced>(spans, Layer::kClient, "ClientDriver::on_reply", 0, &m,
                     [&] { driver.on_reply(m); });
    if (rep.inserts != ins) {
      tot.insert_ns.add(t - stamps.insert[m.op]);
    } else if (rep.puts != puts) {
      tot.put_ns.add(t - stamps.put[m.op]);
    } else if (rep.gets != gets) {
      tot.get_ns.add(t - stamps.get[m.op]);
      if (!get_ok) ++bad_gets;
    }
  };

  bool timed_out = false;
  try {
    in_span<kTraced>(spans, Layer::kClient, "ClientDriver::start", 0, nullptr,
                     [&] { driver.start(); });
    std::uint64_t spins = 0;
    while (!driver.done()) {
      if ((++spins & 255) == 0 && now_ns() - t1 > kRoundTimeoutNs) {
        timed_out = true;
        break;
      }
      for (std::size_t i = 0; i < kNodes; ++i) {
        const auto id = static_cast<std::uint32_t>(i);
        const std::uint64_t before = delivered;
        auto on_message = [&, i, id](const Message& m) {
          ++delivered;
          if (is_request(m.type)) {
            in_span<kTraced>(spans, Layer::kNode, "NodeLogic::on_message", id,
                             &m, [&] { nodes[i].on_message(m); });
          } else if (i == 0) {
            in_span<kTraced>(spans, Layer::kPump, "pump.reply", 0, &m,
                             [&] { on_reply(m); });
          }
        };
        auto on_timer = [&, i](const Message& m) {
          if (i != 0) return;
          in_span<kTraced>(spans, Layer::kClient, "ClientDriver::on_timer", 0,
                           &m, [&] { driver.on_timer(m); });
        };
        ++polls;
        in_span<kTraced>(spans, Layer::kUdpPoll, "UdpTransport::poll", id,
                         nullptr,
                         [&] { udp[i]->poll(0, on_message, on_timer); });
        if (delivered == before) ++empty;
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
  }
  const std::uint64_t t2 = now_ns();

  const std::uint64_t completed = rep.inserts + rep.puts + rep.gets;
  const std::uint64_t attempted = ph.ops();
  std::uint64_t failed = attempted - std::min(completed, attempted);
  failed += bad_gets;
  if (driver.done()) {
    failed += census_mismatch(rep.loads, kNodes, ph.keys);
    if (ph.window == 1) {
      std::vector<std::uint32_t>& want = tot.oracle[input];
      if (want.empty()) {
        want = simulator_placements(seed, kNodes, ph.keys,
                                    opt.scratch + "/oracle_trace.json");
      }
      failed += placement_mismatches(rep.placements, want);
    }
  }
  failed = std::min(failed, attempted);
  if (failed > 0 && tot.failure.empty()) {
    tot.failure = timed_out ? "round timed out"
                  : !error.empty() ? error
                                   : "oracle, census or get-bytes mismatch";
  }

  const double setup_s = seconds_between(t0, t1);
  const double run_s = seconds_between(t1, t2);
  tot.setup_s.push_back(setup_s);
  tot.ops_per_s.push_back(static_cast<double>(completed) / run_s);
  tot.measured_s += setup_s + run_s;
  ++tot.rounds;
  tot.attempted += attempted;
  tot.completed += completed;
  tot.failed += failed;
  tot.polls += polls;
  tot.empty_polls += empty;
  tot.delivered += delivered;
  tot.retransmits += rep.total_retransmits();
  for (const auto& t : udp) {
    tot.datagrams += t->links().total;
    tot.malformed += t->malformed();
  }
  if constexpr (kTraced) {
    for (std::size_t l = 0; l < kLayerCount; ++l) {
      tot.self_ns[l] += spans->self_ns(static_cast<Layer>(l));
    }
    tot.top_ns += spans->top_level_ns();
    tot.wall_ns += t2 - t1;
  }
  if (keep != nullptr && keep->placements.empty() && driver.done()) {
    keep->seed = seed;
    keep->placements = rep.placements;
    keep->get_keys = stamps.get_key;
  }
}

struct Phases {
  PhaseTotals w1{kW1}, w32{kW32};
};

/// Rounds of both phases, interleaved until each has used `budget_s`:
/// the phase that has measured less runs the next round, so each phase
/// samples the whole run rather than one half of it. `keep` takes a w32
/// round's inputs.
template <bool kTraced>
Phases run_phases(const Options& opt, double budget_s, SpanRecorder* spans,
                  std::vector<Message>* frames, RoundInputs* keep) {
  Phases out;
  std::uint64_t r1 = 0, r32 = 0;
  const auto done = [&](const PhaseTotals& t, std::uint64_t r) {
    return r >= kMinRounds && t.measured_s >= budget_s;
  };
  while (!done(out.w1, r1) || !done(out.w32, r32)) {
    const bool one = !done(out.w1, r1) &&
                     (done(out.w32, r32) || out.w1.measured_s <= out.w32.measured_s);
    const PhaseSpec& ph = one ? kW1 : kW32;
    std::uint64_t& r = one ? r1 : r32;
    PinnedCpu pin(r);  // the pump visits every CPU in turn
    if constexpr (kTraced) spans->set_round(ph.name, static_cast<std::uint32_t>(r));
    run_round<kTraced>(opt, ph, r % kRoundInputs, one ? out.w1 : out.w32, spans,
                       frames, one ? nullptr : keep);
    ++r;
  }
  return out;
}

double us(LatencyHistogram& ns, double q) { return ns.quantile_ns(q) * 1e-3; }

void add_latencies(Result& res, const std::string& p, PhaseTotals& t) {
  res.add(p + "insert_p50_us", "us", us(t.insert_ns, 0.5));
  res.add(p + "insert_p99_us", "us", us(t.insert_ns, 0.99));
  res.add(p + "put_p50_us", "us", us(t.put_ns, 0.5));
  res.add(p + "put_p99_us", "us", us(t.put_ns, 0.99));
  res.add(p + "get_p50_us", "us", us(t.get_ns, 0.5));
  res.add(p + "get_p99_us", "us", us(t.get_ns, 0.99));
  res.add(p + "get_p999_us", "us", us(t.get_ns, 0.999));
}

/// Per-op layer table of one phase: self times from its traced rounds,
/// counts from its untraced rounds.
void add_layers(Result& res, const std::string& p, const PhaseTotals& plain,
                const PhaseTotals& traced) {
  const auto per_op = [&](double ns) {
    return ns * 1e-3 / static_cast<double>(traced.completed);
  };
  const auto self = [&](Layer l) {
    return static_cast<double>(traced.self_ns[static_cast<std::size_t>(l)]);
  };
  const double wall = static_cast<double>(traced.wall_ns);
  const double pump = wall - static_cast<double>(traced.top_ns) + self(Layer::kPump);
  res.add(p + "net.udp.poll_self_us", "us", per_op(self(Layer::kUdpPoll)));
  res.add(p + "net.udp.send_us", "us", per_op(self(Layer::kUdpSend)));
  res.add(p + "net.node.self_us", "us", per_op(self(Layer::kNode)));
  res.add(p + "net.client.self_us", "us", per_op(self(Layer::kClient)));
  res.add(p + "pump.self_us", "us", per_op(pump));
  res.add(p + "op_wall_us", "us", per_op(wall));
  res.add(p + "net.udp.share", "ratio",
          (self(Layer::kUdpPoll) + self(Layer::kUdpSend)) / wall);
  res.add(p + "net.handlers.share", "ratio",
          (self(Layer::kNode) + self(Layer::kClient)) / wall);
  const auto ops = static_cast<double>(plain.completed);
  res.add(p + "net.udp.datagrams_per_op", "count/op",
          static_cast<double>(plain.datagrams) / ops);
  res.add(p + "net.udp.polls_per_op", "count/op",
          static_cast<double>(plain.polls) / ops);
  res.add(p + "net.udp.empty_poll_ratio", "ratio",
          static_cast<double>(plain.empty_polls) /
              static_cast<double>(plain.polls));
  res.add(p + "net.udp.msgs_per_poll", "count",
          static_cast<double>(plain.delivered) /
              static_cast<double>(plain.polls - plain.empty_polls));
  res.add(p + "net.client.retransmits_per_op", "count/op",
          static_cast<double>(plain.retransmits) / ops);
  res.add(p + "net.udp.malformed", "count",
          static_cast<double>(plain.malformed));
}

/// Layers the served path hides, timed alone on one round's inputs: the
/// wire codec on the frames the traced run sent, one node's HashStore
/// with its Zipf reads, Chord routing on the round's ring and keys.
void add_isolated(Result& res, const RoundInputs& in,
                  const std::vector<Message>& frames, SpanRecorder& spans) {
  Scope s(spans, Layer::kIsolated, "serve.isolated");
  std::vector<net::wire::Frame> encoded(frames.size());
  res.add("net.wire.encode_ns", "ns",
          median_ns_per_item(kRepeats, frames.size(), [&](std::uint64_t& sink) {
            for (std::size_t i = 0; i < frames.size(); ++i) {
              encoded[i] = net::wire::encode(frames[i]);
              sink += encoded[i][8];
            }
          }));
  res.add("net.wire.decode_ns", "ns",
          median_ns_per_item(kRepeats, encoded.size(), [&](std::uint64_t& sink) {
            for (const auto& f : encoded) {
              const auto m = net::wire::decode(f.data(), f.size());
              sink += m ? m->op : 1;
            }
          }));

  // Node 0's keys and the reads that went to it.
  std::vector<std::uint64_t> keys, reads;
  for (std::uint64_t k = 0; k < in.placements.size(); ++k) {
    if (in.placements[k] == 0) keys.push_back(k);
  }
  for (const std::uint64_t k : in.get_keys) {
    if (k < in.placements.size() && in.placements[k] == 0) reads.push_back(k);
  }
  if (keys.empty() || reads.empty()) {
    throw std::runtime_error("serve: node 0 holds no keys to time the store on");
  }
  res.add("store.put_ns", "ns",
          median_ns_per_item(kRepeats, keys.size(), [&](std::uint64_t& sink) {
            store::HashStore st(store::HashStore::kNeighborhood);
            for (const std::uint64_t k : keys) {
              st.put_u64(k, net::protocol::store_value(k));
            }
            sink += st.size();
          }));
  store::HashStore st(store::HashStore::kNeighborhood);
  for (const std::uint64_t k : keys) st.put_u64(k, net::protocol::store_value(k));
  res.add("store.get_ns", "ns",
          median_ns_per_item(kRepeats, reads.size(), [&](std::uint64_t& sink) {
            for (const std::uint64_t k : reads) sink += st.get_u64(k).value_or(1);
          }));

  auto gen = rng::make_stream(in.seed, 0, rng::StreamPurpose::kServerPlacement);
  auto ring = dht::ChordRing::random(kNodes, gen);
  ring.build_fingers();
  auto draws = rng::make_stream(in.seed, 0, rng::StreamPurpose::kBallChoices);
  std::vector<double> key(2 * in.placements.size());
  std::vector<std::uint32_t> from(key.size());
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = rng::uniform01(draws);
    from[i] = static_cast<std::uint32_t>(i % kNodes);
  }
  res.add("dht.chord.next_hop_ns", "ns",
          median_ns_per_item(kRepeats, key.size(), [&](std::uint64_t& sink) {
            for (std::size_t i = 0; i < key.size(); ++i) {
              sink += ring.next_hop(from[i], key[i]);
            }
          }));
  res.add("dht.chord.successor_ns", "ns",
          median_ns_per_item(kRepeats, key.size(), [&](std::uint64_t& sink) {
            for (const double k : key) sink += ring.successor(k);
          }));
}

}  // namespace

Result run_serve(const Options& opt) {
  Result res;
  Phases plain = run_phases<false>(opt, opt.seconds / 2.0, nullptr, nullptr, nullptr);
  PhaseTotals& w1 = plain.w1;
  PhaseTotals& w32 = plain.w32;
  res.attempted = w1.attempted + w32.attempted;
  res.failed = w1.failed + w32.failed;
  res.note("serve.nodes", std::to_string(kNodes));
  for (const PhaseSpec* ph : {&kW1, &kW32}) {
    res.note("serve." + ph->prefix() + "round",
             std::to_string(ph->keys) + " inserts, " + std::to_string(ph->keys) +
                 " puts, " + std::to_string(ph->gets()) + " zipf gets");
  }
  res.note("serve.rounds", "w1 " + std::to_string(w1.rounds) + ", w32 " +
                               std::to_string(w32.rounds));
  for (const PhaseTotals* t : {&w1, &w32}) {
    if (!t->failure.empty()) res.note("serve.failure", t->failure);
  }

  if (!opt.trace) {
    std::vector<double> setup = w1.setup_s;
    setup.insert(setup.end(), w32.setup_s.begin(), w32.setup_s.end());
    res.add("setup_s", "s", median(setup));
    res.add("ops_per_sec", "1/s", median(w32.ops_per_s));
    res.add("insert_p50_us", "us", us(w1.insert_ns, 0.5));
    res.add("insert_p90_us", "us", us(w1.insert_ns, 0.9));
    res.add("get_p50_us", "us", us(w1.get_ns, 0.5));
    res.add("get_p90_us", "us", us(w1.get_ns, 0.9));
    res.add("peak_rss_mb", "MB", peak_rss_mb());
    return res;
  }

  SpanRecorder spans;
  std::vector<Message> frames;
  RoundInputs inputs;
  Phases traced = run_phases<true>(opt, opt.seconds / 4.0, &spans, &frames, &inputs);
  PhaseTotals& t1 = traced.w1;
  PhaseTotals& t32 = traced.w32;
  res.attempted += t1.attempted + t32.attempted;
  res.failed += t1.failed + t32.failed;
  for (const PhaseTotals* t : {&t1, &t32}) {
    if (!t->failure.empty()) res.note("serve.failure", t->failure);
  }
  add_layers(res, kW1.prefix(), w1, t1);
  add_latencies(res, kW1.prefix(), w1);
  add_layers(res, kW32.prefix(), w32, t32);
  add_latencies(res, kW32.prefix(), w32);
  add_isolated(res, inputs, frames, spans);
  res.add("trace_overhead", "ratio", median(t32.ops_per_s) / median(w32.ops_per_s));
  res.add("failed_op_ratio", "ratio", res.failed_ratio());
  res.trace_file = opt.scratch + "/trace_serve.json";
  spans.write_chrome_json(res.trace_file);
  return res;
}

}  // namespace perfbench
