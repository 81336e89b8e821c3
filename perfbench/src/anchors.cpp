#include "anchors.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "net/protocol.hpp"
#include "sim/scenario.hpp"

namespace perfbench {

using namespace geochoice;

std::vector<std::uint32_t> simulator_placements(std::uint64_t seed,
                                                std::size_t nodes,
                                                std::uint64_t inserts,
                                                const std::string& trace_path) {
  sim::Scenario sc;
  sc.space = sim::SpaceKind::kChordNet;
  sc.model = sim::ExecModel::kWire;
  sc.transport = sim::WireTransport::kSim;
  sc.num_servers = nodes;
  sc.num_balls = inserts;
  sc.num_choices = 2;
  sc.tie = core::TieBreak::kFirstChoice;
  sc.trials = 1;
  sc.threads = 1;
  sc.seed = seed;
  sc.latency = net::LatencyModel::zero();
  sc.window = 1;
  sc.trace_out = trace_path;
  (void)sim::run(sc);
  std::ifstream in(trace_path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read oracle trace " + trace_path);
  std::ostringstream text;
  text << in.rdbuf();
  return placements_from_trace(text.str(), inserts);
}

std::vector<std::uint32_t> placements_from_trace(const std::string& json,
                                                 std::uint64_t inserts) {
  std::vector<std::uint32_t> owner(inserts, kNoOwner);
  std::vector<std::uint8_t> seen(inserts, 0);
  static constexpr char kEvent[] = "\"name\": \"place delivered\"";
  std::size_t at = 0;
  while ((at = json.find(kEvent, at)) != std::string::npos) {
    const std::size_t eol = json.find('\n', at);
    const std::string line = json.substr(at, eol - at);
    at += sizeof(kEvent) - 1;
    const std::size_t tid = line.find("\"tid\": ");
    const std::size_t op = line.find("\"op\": ");
    if (tid == std::string::npos || op == std::string::npos) continue;
    const unsigned long long node =
        std::strtoull(line.c_str() + tid + 7, nullptr, 10);
    const unsigned long long id =
        std::strtoull(line.c_str() + op + 6, nullptr, 10);
    if (id >= inserts) continue;
    if (seen[id]++ == 0) {
      owner[id] = static_cast<std::uint32_t>(node);
    } else {
      owner[id] = kNoOwner;  // placed twice: not a valid oracle answer
    }
  }
  return owner;
}

std::uint64_t placement_mismatches(const std::vector<std::uint32_t>& got,
                                   const std::vector<std::uint32_t>& want) {
  const std::size_t common = got.size() < want.size() ? got.size() : want.size();
  std::uint64_t bad = (got.size() > want.size() ? got.size() - want.size()
                                                : want.size() - got.size());
  for (std::size_t i = 0; i < common; ++i) {
    if (got[i] != want[i] || want[i] == kNoOwner) ++bad;
  }
  return bad;
}

std::uint64_t census_mismatch(const std::vector<std::uint32_t>& loads,
                              std::size_t nodes, std::uint64_t inserts) {
  std::uint64_t sum = 0;
  for (const std::uint32_t l : loads) sum += l;
  const std::uint64_t diff = sum > inserts ? sum - inserts : inserts - sum;
  if (loads.size() != nodes && diff == 0) return 1;
  return diff;
}

bool get_reply_correct(std::uint64_t key_id, bool hit,
                       std::uint64_t value) noexcept {
  return hit && value == net::protocol::store_value(key_id);
}

}  // namespace perfbench
