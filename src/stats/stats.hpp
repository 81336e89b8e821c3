// stats.hpp — umbrella header for the geochoice statistics substrate.
#pragma once

#include "stats/chi_squared.hpp"  // IWYU pragma: export
#include "stats/confidence.hpp"   // IWYU pragma: export
#include "stats/histogram.hpp"    // IWYU pragma: export
#include "stats/p2_quantile.hpp"  // IWYU pragma: export
#include "stats/summary.hpp"      // IWYU pragma: export
#include "stats/tail.hpp"         // IWYU pragma: export
