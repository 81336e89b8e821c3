#include <cmath>
#include <cstddef>

#include "rng/distributions.hpp"

namespace geochoice::rng::detail {

namespace {

ZigguratTables make_ziggurat_tables() {
  constexpr std::size_t n = kZigguratLayers;
  const auto f = [](double x) { return std::exp(-0.5 * x * x); };
  const double r = kZigguratR;
  // v: the common layer area, the base strip's rectangle plus its tail
  // (sqrt(pi / 2) * erfc(R / sqrt(2)) is the integral of f beyond R).
  const double v =
      r * f(r) + 1.2533141373155002512 * std::erfc(r * 0.70710678118654752440);
  std::array<double, n + 1> x{};
  x[0] = v / f(r);
  x[1] = r;
  for (std::size_t i = 1; i + 1 < n; ++i) {
    x[i + 1] = std::sqrt(-2.0 * std::log(v / x[i] + f(x[i])));
  }
  x[n] = 0.0;
  ZigguratTables t;
  for (std::size_t i = 0; i < n; ++i) {
    t.layer[i].accept =
        static_cast<std::uint64_t>(x[i + 1] / x[i] * 0x1.0p52);
    t.layer[i].width = x[i] * 0x1.0p-52;
  }
  for (std::size_t i = 0; i <= n; ++i) t.f[i] = f(x[i]);
  return t;
}

}  // namespace

const ZigguratTables kZiggurat = make_ziggurat_tables();

}  // namespace geochoice::rng::detail
