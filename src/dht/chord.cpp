#include "dht/chord.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "geometry/ring_arithmetic.hpp"

namespace geochoice::dht {

ChordRing::ChordRing(std::vector<double> node_ids)
    : ids_(std::move(node_ids)) {
  // Validates and sorts; successor() searches the ids itself, so the
  // bucket directory is not kept.
  geometry::sort_ring_positions(ids_);
}

ChordRing ChordRing::random(std::size_t n, rng::DefaultEngine& gen) {
  std::vector<double> ids(n);
  for (double& id : ids) id = rng::uniform01(gen);
  return ChordRing(std::move(ids));
}

std::uint32_t ChordRing::successor(double key) const noexcept {
  const auto it = std::lower_bound(ids_.begin(), ids_.end(), key);
  if (it == ids_.end()) return 0;  // wrap to the first node
  return static_cast<std::uint32_t>(it - ids_.begin());
}

double ChordRing::owned_arc(std::uint32_t i) const noexcept {
  const std::size_t n = ids_.size();
  const std::size_t pred = (i == 0) ? n - 1 : i - 1;
  return geometry::ring_gap(ids_[pred], ids_[i]);
}

void ChordRing::build_fingers(int fingers) {
  const std::size_t n = ids_.size();
  if (fingers <= 0) {
    fingers = static_cast<int>(
                  std::ceil(std::log2(static_cast<double>(std::max<std::size_t>(
                      2, n))))) +
              1;
  }
  fingers_per_node_ = fingers;
  fingers_.assign(n * static_cast<std::size_t>(fingers), 0);
  for (std::size_t i = 0; i < n; ++i) {
    for (int k = 0; k < fingers; ++k) {
      // Finger k spans 2^{-(k+1)} of the ring: k = 0 is the halfway finger,
      // larger k are progressively closer (Chord's table, normalized).
      const double target =
          geometry::wrap01(ids_[i] + std::ldexp(1.0, -(k + 1)));
      fingers_[i * static_cast<std::size_t>(fingers) +
               static_cast<std::size_t>(k)] = successor(target);
    }
  }

  // Precompute each node's next-hop candidates (successor link + fingers)
  // sorted by descending progress, so next_hop() is a first-hit scan
  // instead of a full ring_gap pass per forwarded message. Two distinct
  // candidates can never make equal progress from the same node (ids are
  // distinct), so the sort order fixes the same argmax the scan took.
  hop_stride_ = fingers + 1;
  const std::size_t stride = static_cast<std::size_t>(hop_stride_);
  hop_progress_.assign(n * stride, 2.0);  // 2.0: sentinel no ring_gap hits
  hop_node_.assign(n * stride, 0);
  std::vector<std::pair<double, std::uint32_t>> cands;
  for (std::size_t i = 0; i < n; ++i) {
    cands.clear();
    const auto succ_link =
        static_cast<std::uint32_t>((i + 1) % n);
    auto consider = [&](std::uint32_t cand) {
      if (cand == static_cast<std::uint32_t>(i)) return;
      cands.emplace_back(geometry::ring_gap(ids_[i], ids_[cand]), cand);
    };
    consider(succ_link);
    for (int k = 0; k < fingers; ++k) {
      consider(fingers_[i * static_cast<std::size_t>(fingers) +
                        static_cast<std::size_t>(k)]);
    }
    std::sort(cands.begin(), cands.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    cands.erase(std::unique(cands.begin(), cands.end()), cands.end());
    for (std::size_t j = 0; j < cands.size(); ++j) {
      hop_progress_[i * stride + j] = cands[j].first;
      hop_node_[i * stride + j] = cands[j].second;
    }
  }
}

std::uint32_t ChordRing::next_hop(std::uint32_t from, double key) const {
  if (!has_fingers()) {
    throw std::logic_error("ChordRing::next_hop: call build_fingers() first");
  }
  const std::size_t n = ids_.size();
  const double dist = geometry::ring_gap(ids_[from], key);
  // Candidates (successor link + fingers) are presorted by descending
  // progress at build_fingers() time: the first one not passing the key is
  // the greedy hop. Padding entries carry progress 2.0, which no dist in
  // [0, 1) reaches, so short rows fall through to the successor fallback.
  const std::size_t base =
      static_cast<std::size_t>(from) * static_cast<std::size_t>(hop_stride_);
  for (int j = 0; j < hop_stride_; ++j) {
    if (hop_progress_[base + static_cast<std::size_t>(j)] <= dist) {
      return hop_node_[base + static_cast<std::size_t>(j)];
    }
  }
  // No node lies in (from, key]: the immediate successor owns the key.
  return (from + 1) % static_cast<std::uint32_t>(n);
}

LookupResult ChordRing::lookup(std::uint32_t from_node, double key) const {
  if (!has_fingers()) {
    throw std::logic_error("ChordRing::lookup: call build_fingers() first");
  }
  const std::size_t n = ids_.size();
  const std::uint32_t owner = successor(key);
  std::uint32_t cur = from_node;
  std::uint32_t hops = 0;
  while (cur != owner && hops <= n) {
    cur = next_hop(cur, key);
    ++hops;
  }
  return {owner, hops};
}

}  // namespace geochoice::dht
