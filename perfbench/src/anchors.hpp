// anchors.hpp — the correctness anchors every workload checks its
// outputs against. Each comparison returns how many operations the
// oracle disagrees on (0 = the anchor holds); those count as failed
// operations. The self-test feeds each one a wrong answer.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "stats/histogram.hpp"

namespace perfbench {

/// Owner sequence (owner of insert i) that the zero-latency, window-1
/// wire simulator produces for a `nodes`-node ring and `inserts` d=2
/// tie=first inserts from `seed`: the "cluster == simulator" oracle. It
/// runs sim::run with trace_out=`trace_path` and reads the placements
/// back from the trace file.
[[nodiscard]] std::vector<std::uint32_t> simulator_placements(
    std::uint64_t seed, std::size_t nodes, std::uint64_t inserts,
    const std::string& trace_path);

/// Owners from the "place delivered" events of a sim::run Chrome trace.
/// Inserts without exactly one such event get kNoOwner.
inline constexpr std::uint32_t kNoOwner = 0xffffffffu;
[[nodiscard]] std::vector<std::uint32_t> placements_from_trace(
    const std::string& json, std::uint64_t inserts);

/// Positions where `got` and `want` differ (a length difference counts
/// every missing or extra position).
[[nodiscard]] std::uint64_t placement_mismatches(
    const std::vector<std::uint32_t>& got,
    const std::vector<std::uint32_t>& want);

/// Census check: one load per node and loads summing to the inserts.
/// Returns the inserts unaccounted for (at least 1 on any mismatch).
[[nodiscard]] std::uint64_t census_mismatch(
    const std::vector<std::uint32_t>& loads, std::size_t nodes,
    std::uint64_t inserts);

/// A get reply is correct when it hit and carries its key's bytes.
[[nodiscard]] bool get_reply_correct(std::uint64_t key_id, bool hit,
                                     std::uint64_t value) noexcept;

/// Max-load distributions of two runs over the same trials agree.
[[nodiscard]] inline bool same_max_loads(
    const geochoice::stats::IntHistogram& a,
    const geochoice::stats::IntHistogram& b) {
  return a.total() > 0 && a == b;
}

}  // namespace perfbench
