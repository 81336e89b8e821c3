// sim.hpp — umbrella header for the geochoice simulation harness.
#pragma once

#include "sim/cli.hpp"           // IWYU pragma: export
#include "sim/csv.hpp"           // IWYU pragma: export
#include "sim/scenario.hpp"      // IWYU pragma: export
#include "sim/table_format.hpp"  // IWYU pragma: export
