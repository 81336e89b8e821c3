// dht_node — the reproduction, served: one Chord + two-choice node per
// process, datagrams on the wire.
//
// Two modes:
//
//   Server:   dht_node --id=2 --nodes=4 --port-base=9200 --seed=42
//     Bind 127.0.0.1:(port-base + id), derive the shared ring from
//     (seed, trial, nodes), serve probes / placements / lookups until
//     SIGTERM or SIGINT. Every node derives the same ring, so a static
//     peer list is just the port arithmetic.
//
//   Cluster driver:  dht_node --cluster=4 --keys=512 --port-base=9200
//     Fork the other N-1 nodes as children, wait until each has bound its
//     port (a readiness byte on a pipe; a child that exits first fails
//     the run at once, with exit 1), run node 0 plus the
//     ClientDriver in this process, drive the two-choice insertion
//     workload (and --lookups measurement lookups), census every node's
//     final load, print the report, SIGTERM the children, exit 0 only
//     if every operation completed. This is the "run it for real" entry
//     point — and the printed max load is directly comparable to the
//     NetSimulator oracle for the same --seed/--nodes/--keys/--choices
//     with a deterministic --tie: the simulator runs the same NodeLogic
//     and ClientDriver, over simulated links.
//
// Flags (shared): --nodes, --port-base, --seed, --trial, --choices,
// --tie (first|lowest|random), --keys, --lookups, --gets, --zipf,
// --window, --retransmit-ms, --timeout-ms, --heartbeat-ms (0 = off).
// Every node's port (port-base + id) must be in [1, 65535], and --id,
// --window and --choices must fit their types; otherwise dht_node exits
// 2 before it forks.
// --gets=N makes the driver write every placed key's value to its owner
// and then issue N Zipf-popular reads (--zipf exponent, 0 = uniform);
// the nodes serve both from their HashStores.
//
// Every process hosts its node in a net::NodeHost (the driver's also hosts
// the client), as the simulator and the in-process cluster do.
// Observability: with --heartbeat-ms=N every process prints a one-line
// stats heartbeat to stderr every N ms of transport time; SIGUSR1 dumps
// the same line immediately (servers and the driver both install it).
// The cluster report ends with the driver node's same counters.
#include <cerrno>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

#include "core/tie_breaking.hpp"
#include "net/host.hpp"
#include "net/node.hpp"
#include "net/udp_transport.hpp"
#include "sim/cli.hpp"

namespace {

using namespace geochoice;

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void on_signal(int) { g_stop = 1; }
void on_dump(int) { g_dump = 1; }

struct Options {
  std::size_t nodes = 4;
  std::uint32_t id = 0;
  std::uint16_t port_base = 9200;
  std::uint64_t seed = 0x6e657473696d2121ULL;  // NetConfig's default
  std::uint64_t trial = 0;
  std::uint64_t keys = 0;  // 0 = nodes
  std::uint64_t lookups = 0;
  std::uint64_t gets = 0;  // 0 = no store phase
  double zipf = 0.9;
  int choices = 2;
  std::uint32_t window = 1;
  core::TieBreak tie = core::TieBreak::kFirstChoice;
  std::uint64_t retransmit_ms = 50;
  std::uint64_t timeout_ms = 60'000;
  std::uint64_t heartbeat_ms = 0;  // 0 = no periodic stats line
};

/// The node counters every stats line ends with. The heartbeat, the
/// SIGUSR1 dump and the cluster report all print them from here, so they
/// cannot disagree on a name.
std::string node_stats(const net::NodeStats& s) {
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "datagrams_out=%llu malformed=%llu send_calls=%llu "
                "self_delivered=%llu recv_calls=%llu datagrams_in=%llu "
                "load=%llu keys_stored=%llu",
                static_cast<unsigned long long>(s.links.total),
                static_cast<unsigned long long>(s.malformed),
                static_cast<unsigned long long>(s.send_calls),
                static_cast<unsigned long long>(s.self_delivered),
                static_cast<unsigned long long>(s.recv_calls),
                static_cast<unsigned long long>(s.datagrams_in),
                static_cast<unsigned long long>(s.load),
                static_cast<unsigned long long>(s.keys_stored));
  return buf;
}

/// After each poll, print the node's stats line on stderr (so cluster
/// mode's parsed stdout report stays clean) if SIGUSR1 asked for it, and
/// if the heartbeat due at transport time `next_beat_ms` has come.
void check_stats(const net::UdpTransport& transport,
                 const net::NodeHost<net::UdpTransport>& host,
                 const Options& opt, std::uint64_t& next_beat_ms) {
  const auto print = [&](const char* why) {
    std::fprintf(stderr, "dht_node[%u] %s: t=%llums %s\n", transport.self(),
                 why, static_cast<unsigned long long>(transport.now_ms()),
                 node_stats(host.stats()).c_str());
  };
  if (g_dump != 0) {
    g_dump = 0;
    print("dump");
  }
  if (opt.heartbeat_ms > 0 && transport.now_ms() >= next_beat_ms) {
    print("heartbeat");
    next_beat_ms += opt.heartbeat_ms;
  }
}

/// False, after saying why on stderr, when --`flag`'s value exceeds `max`.
bool fits(const char* flag, std::uint64_t value, std::uint64_t max) {
  if (value <= max) return true;
  std::fprintf(stderr, "dht_node: --%s=%llu does not fit (max %llu)\n", flag,
               static_cast<unsigned long long>(value),
               static_cast<unsigned long long>(max));
  return false;
}

std::vector<net::Endpoint> make_peers(const Options& opt) {
  std::vector<net::Endpoint> peers;
  peers.reserve(opt.nodes);
  for (std::size_t i = 0; i < opt.nodes; ++i) {
    peers.push_back(net::Endpoint{
        0x7f000001u, static_cast<std::uint16_t>(opt.port_base + i)});
  }
  return peers;
}

/// Serve one node until a termination signal. Used by standalone server
/// processes and by the forked children of cluster mode, which pass the
/// write end of the readiness pipe as `ready_fd`: it gets one byte once
/// the transport is bound, and is closed.
int serve(const Options& opt, int ready_fd = -1) {
  const auto ring = net::make_ring(opt.nodes, opt.seed, opt.trial);
  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGUSR1, on_dump);
  net::UdpTransport transport(
      opt.id, static_cast<std::uint16_t>(opt.port_base + opt.id));
  transport.set_peers(make_peers(opt));
  net::NodeHost<net::UdpTransport> host(ring, opt.id, transport);
  if (ready_fd >= 0) {
    const char bound = 1;
    while (write(ready_fd, &bound, 1) < 0 && errno == EINTR) {
    }
    close(ready_fd);
  }
  std::uint64_t next_beat_ms = opt.heartbeat_ms;
  while (g_stop == 0) {
    host.poll(50);
    check_stats(transport, host, opt, next_beat_ms);
  }
  return 0;
}

/// Node 0 + client + census, assuming the other nodes are listening.
int drive(const Options& opt) {
  const auto ring = net::make_ring(opt.nodes, opt.seed, opt.trial);
  net::UdpTransport transport(0, opt.port_base);
  transport.set_peers(make_peers(opt));

  net::DriverConfig dcfg;
  dcfg.inserts = opt.keys == 0 ? opt.nodes : opt.keys;
  dcfg.lookups = opt.lookups;
  dcfg.choices = opt.choices;
  dcfg.window = opt.window;
  dcfg.tie = opt.tie;
  dcfg.seed = opt.seed;
  dcfg.trial = opt.trial;
  dcfg.store_gets = opt.gets;
  dcfg.store_zipf_alpha = opt.zipf;
  dcfg.retransmit_ms = opt.retransmit_ms;
  net::NodeHost<net::UdpTransport> host(ring, 0, transport, dcfg);
  net::ClientDriver<net::UdpTransport>& client = *host.client();

  std::signal(SIGUSR1, on_dump);
  std::uint64_t next_beat_ms = opt.heartbeat_ms;
  client.start();
  while (!client.done()) {
    if (transport.now_ms() > opt.timeout_ms) {
      std::fprintf(stderr, "dht_node: workload timed out after %llu ms\n",
                   static_cast<unsigned long long>(opt.timeout_ms));
      return 1;
    }
    host.poll(1);
    check_stats(transport, host, opt, next_beat_ms);
  }

  const net::DriverReport& r = client.report();
  std::printf("nodes=%zu inserts=%llu lookups=%llu puts=%llu gets=%llu "
              "get_misses=%llu max_load=%u retransmits=%llu "
              "data_retransmits=%llu census_retries=%llu %s\n",
              opt.nodes, static_cast<unsigned long long>(r.inserts),
              static_cast<unsigned long long>(r.lookups),
              static_cast<unsigned long long>(r.puts),
              static_cast<unsigned long long>(r.gets),
              static_cast<unsigned long long>(r.get_misses), r.max_load,
              static_cast<unsigned long long>(r.total_retransmits()),
              static_cast<unsigned long long>(r.data_retransmits),
              static_cast<unsigned long long>(r.census_retries),
              node_stats(host.stats()).c_str());
  std::printf("insert_latency_us: mean=%.1f p50=%.1f p90=%.1f p99=%.1f\n",
              r.insert_latency_us.mean(), r.insert_latency_us_q.value(0),
              r.insert_latency_us_q.value(1), r.insert_latency_us_q.value(2));
  if (r.lookups > 0) {
    std::printf("lookup_latency_us: mean=%.1f p50=%.1f p90=%.1f p99=%.1f\n",
                r.lookup_latency_us.mean(), r.lookup_latency_us_q.value(0),
                r.lookup_latency_us_q.value(1), r.lookup_latency_us_q.value(2));
  }
  if (r.gets > 0) {
    std::printf("get_latency_us: mean=%.1f p50=%.1f p90=%.1f p99=%.1f\n",
                r.get_latency_us.mean(), r.get_latency_us_q.value(0),
                r.get_latency_us_q.value(1), r.get_latency_us_q.value(2));
  }
  const bool store_done =
      opt.gets == 0 || (r.puts == dcfg.inserts && r.gets == opt.gets);
  const bool complete =
      r.inserts == dcfg.inserts && r.lookups == dcfg.lookups && store_done &&
      r.loads.size() == opt.nodes;
  return complete ? 0 : 1;
}

/// Bytes read from `fd` until `expected` arrive or every writer has
/// closed its end (EOF).
std::size_t read_ready(int fd, std::size_t expected) {
  std::size_t got = 0;
  char buf[64];
  while (got < expected) {
    const ssize_t r = read(fd, buf, sizeof(buf));
    if (r > 0) {
      got += static_cast<std::size_t>(r);
    } else if (r == 0 || errno != EINTR) {
      break;
    }
  }
  return got;
}

/// Fork the ring, wait until every child has bound, drive it, tear it
/// down.
int run_cluster(const Options& opt) {
  // Readiness handshake: each child writes one byte once its socket is
  // bound, then closes its end. Reading EOF before one byte per child
  // means a child exited first (say its port was taken).
  int ready[2];
  if (pipe(ready) != 0) {
    std::perror("dht_node: pipe");
    return 1;
  }
  std::vector<pid_t> children;
  children.reserve(opt.nodes - 1);
  for (std::size_t i = 1; i < opt.nodes; ++i) {
    const pid_t pid = fork();
    if (pid < 0) {
      std::perror("dht_node: fork");
      for (const pid_t c : children) kill(c, SIGTERM);
      close(ready[0]);
      close(ready[1]);
      return 1;
    }
    if (pid == 0) {
      close(ready[0]);
      Options child = opt;
      child.id = static_cast<std::uint32_t>(i);
      try {
        _exit(serve(child, ready[1]));
      } catch (const std::exception& e) {
        std::fprintf(stderr, "dht_node: %s\n", e.what());
        _exit(1);
      }
    }
    children.push_back(pid);
  }
  close(ready[1]);
  const std::size_t bound = read_ready(ready[0], children.size());
  close(ready[0]);
  int rc = 1;
  if (bound < children.size()) {
    std::fprintf(stderr,
                 "dht_node: %zu of %zu cluster nodes exited before binding "
                 "their port\n",
                 children.size() - bound, children.size());
  } else {
    try {
      rc = drive(opt);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "dht_node: %s\n", e.what());
    }
  }
  for (const pid_t c : children) kill(c, SIGTERM);
  for (const pid_t c : children) {
    int status = 0;
    waitpid(c, &status, 0);
  }
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    sim::ArgParser args(argc, argv);
    Options opt;
    const bool cluster = args.has("cluster");
    opt.nodes = cluster ? args.get_u64("cluster", opt.nodes)
                        : args.get_u64("nodes", opt.nodes);
    const std::uint64_t id = args.get_u64("id", 0);
    const std::uint64_t port_base = args.get_u64("port-base", opt.port_base);
    opt.seed = args.get_u64("seed", opt.seed);
    opt.trial = args.get_u64("trial", opt.trial);
    opt.keys = args.get_u64("keys", opt.keys);
    opt.lookups = args.get_u64("lookups", opt.lookups);
    opt.gets = args.get_u64("gets", opt.gets);
    opt.zipf = args.get_double("zipf", opt.zipf);
    const std::uint64_t choices = args.get_u64("choices", 2);
    const std::uint64_t window = args.get_u64("window", 1);
    opt.tie = core::tie_break_from_string(args.get_string("tie", "first"));
    opt.retransmit_ms = args.get_u64("retransmit-ms", opt.retransmit_ms);
    opt.timeout_ms = args.get_u64("timeout-ms", opt.timeout_ms);
    opt.heartbeat_ms = args.get_u64("heartbeat-ms", opt.heartbeat_ms);
    if (const auto stray = args.unused(); !stray.empty()) {
      std::fprintf(stderr, "dht_node: unknown flag --%s\n", stray[0].c_str());
      return 2;
    }
    if (opt.nodes < 1) {
      std::fprintf(stderr, "dht_node: need at least one node\n");
      return 2;
    }
    if (!fits("id", id, UINT32_MAX) || !fits("window", window, UINT32_MAX) ||
        !fits("choices", choices, INT_MAX)) {
      return 2;
    }
    // Node i binds port-base + i: every node's port must be in [1, 65535].
    if (port_base == 0 || port_base > 65535 || opt.nodes > 65536 - port_base) {
      std::fprintf(stderr,
                   "dht_node: --port-base=%llu leaves %zu nodes no room in "
                   "ports [1, 65535]\n",
                   static_cast<unsigned long long>(port_base), opt.nodes);
      return 2;
    }
    opt.id = static_cast<std::uint32_t>(id);
    opt.port_base = static_cast<std::uint16_t>(port_base);
    opt.choices = static_cast<int>(choices);
    opt.window = static_cast<std::uint32_t>(window);
    if (opt.id >= opt.nodes) {
      std::fprintf(stderr, "dht_node: --id must be < --nodes\n");
      return 2;
    }
    // Without --id, a server is node 0.
    return cluster ? run_cluster(opt) : serve(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dht_node: %s\n", e.what());
    return 2;
  }
}
