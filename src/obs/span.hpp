// span.hpp — RAII timing scope feeding an obs::Timer.
//
//   static const obs::Timer t("store.resize");
//   { obs::Span span(t); migrate(...); }   // records .calls and .ns
//
// The clock is read only when the runtime toggle is on at construction,
// so a disabled run pays one branch per scope and never touches
// steady_clock. Spans measure wall time on the constructing thread; they
// are not movable — keep them block-scoped.
#pragma once

#include <chrono>
#include <cstdint>

#include "obs/registry.hpp"

namespace geochoice::obs {

#if defined(GEOCHOICE_OBS_ENABLED)

class Span {
 public:
  explicit Span(const Timer& timer) noexcept
      : timer_(&timer), active_(enabled()) {
    if (active_) start_ = std::chrono::steady_clock::now();
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (!active_) return;
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        std::chrono::steady_clock::now() - start_)
                        .count();
    timer_->record_ns(ns > 0 ? static_cast<std::uint64_t>(ns) : 0);
  }

 private:
  const Timer* timer_;
  bool active_;
  std::chrono::steady_clock::time_point start_;
};

#else

class Span {
 public:
  explicit constexpr Span(const Timer&) noexcept {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
};

#endif  // GEOCHOICE_OBS_ENABLED

}  // namespace geochoice::obs
