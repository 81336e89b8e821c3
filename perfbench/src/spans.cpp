#include "spans.hpp"

#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "common.hpp"

namespace perfbench {
namespace {

const char* layer_name(Layer l) noexcept {
  switch (l) {
    case Layer::kUdpPoll:  return "net.udp.poll";
    case Layer::kUdpSend:  return "net.udp.send";
    case Layer::kNode:     return "net.node";
    case Layer::kClient:   return "net.client";
    case Layer::kPump:     return "pump";
    case Layer::kCall:     return "call";
    case Layer::kIsolated: return "isolated";
  }
  return "?";
}

const char* kind_name(ReqKind k) noexcept {
  switch (k) {
    case ReqKind::kNone:   return "";
    case ReqKind::kInsert: return "insert";
    case ReqKind::kPut:    return "put";
    case ReqKind::kGet:    return "get";
    case ReqKind::kCensus: return "census";
  }
  return "?";
}

constexpr std::size_t kKeep = std::size_t{1} << 16;  // spans kept for the file

}  // namespace

SpanRecorder::SpanRecorder() : epoch_(now_ns()) {
  kept_.reserve(kKeep);
  stack_.reserve(16);
}

void SpanRecorder::open(Layer layer, const char* name, std::uint32_t tid,
                        ReqKind kind, std::uint64_t op) {
  std::size_t index = kNotKept;
  if (kept_.size() < kKeep) {
    index = kept_.size();
    Span s;
    s.name = name;
    s.phase = phase_;
    s.op = op;
    s.round = round_;
    s.tid = tid;
    s.depth = static_cast<std::uint32_t>(stack_.size());
    s.layer = layer;
    s.kind = kind;
    kept_.push_back(s);
  }
  ++recorded_;
  stack_.push_back({now_ns(), 0, index, layer});
}

void SpanRecorder::close() noexcept {
  const std::uint64_t end = now_ns();
  const Open o = stack_.back();
  stack_.pop_back();
  const std::uint64_t dur = end - o.start;
  self_[static_cast<std::size_t>(o.layer)] += dur - o.children;
  if (stack_.empty()) {
    top_ += dur;
  } else {
    stack_.back().children += dur;
  }
  if (o.kept_index != kNotKept) {
    kept_[o.kept_index].start = o.start;
    kept_[o.kept_index].dur = dur;
  }
}

void SpanRecorder::reset_totals() noexcept {
  self_.fill(0);
  top_ = 0;
}

std::array<std::uint64_t, kLayerCount> SpanRecorder::offline_self_ns() const {
  std::array<std::uint64_t, kLayerCount> self{};
  // kept_ is in open order, so a span's direct children follow it at
  // depth + 1 until a span at its own depth or shallower.
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < kept_.size(); ++i) {
    const Span& s = kept_[i];
    while (!open.empty() && kept_[open.back()].depth >= s.depth) open.pop_back();
    self[static_cast<std::size_t>(s.layer)] += s.dur;
    if (!open.empty()) {
      self[static_cast<std::size_t>(kept_[open.back()].layer)] -= s.dur;
    }
    open.push_back(i);
  }
  return self;
}

void SpanRecorder::write_chrome_json(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  out << "{\"traceEvents\": [";
  char buf[384];
  char round[48];
  bool first = true;
  for (const Span& s : kept_) {
    const double ts_us = static_cast<double>(s.start - epoch_) * 1e-3;
    const double dur_us = static_cast<double>(s.dur) * 1e-3;
    round[0] = '\0';
    if (s.phase != nullptr) {
      std::snprintf(round, sizeof(round), "%s-r%u-", s.phase, s.round);
    }
    int n = 0;
    if (s.kind == ReqKind::kNone) {
      n = std::snprintf(buf, sizeof(buf),
                        "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                        "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                        "\"tid\": %u}",
                        first ? "" : ",", s.name, layer_name(s.layer), ts_us,
                        dur_us, s.tid);
    } else {
      n = std::snprintf(buf, sizeof(buf),
                        "%s\n  {\"name\": \"%s\", \"cat\": \"%s\", \"ph\": "
                        "\"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                        "\"tid\": %u, \"args\": {\"req\": \"%s%s-%llu\", "
                        "\"op\": %llu}}",
                        first ? "" : ",", s.name, layer_name(s.layer), ts_us,
                        dur_us, s.tid, round, kind_name(s.kind),
                        static_cast<unsigned long long>(s.op),
                        static_cast<unsigned long long>(s.op));
    }
    if (n < 0 || n >= static_cast<int>(sizeof(buf))) {
      throw std::runtime_error("trace event too long for " + path);
    }
    out.write(buf, n);
    first = false;
  }
  out << "\n]";
  if (dropped() > 0) {
    std::snprintf(buf, sizeof(buf), ",\n\"geochoiceDroppedRecords\": %llu",
                  static_cast<unsigned long long>(dropped()));
    out << buf;
  }
  out << "}\n";
  if (!out.good()) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
