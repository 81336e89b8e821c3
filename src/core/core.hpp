// core.hpp — umbrella header for the geochoice core library: the d-choice
// allocation process over geometric spaces, its tie-breaking strategies,
// result types, and the paper's analytic bounds.
#pragma once

#include "core/batch_process.hpp"    // IWYU pragma: export
#include "core/process.hpp"          // IWYU pragma: export
#include "core/result.hpp"           // IWYU pragma: export
#include "core/supermarket.hpp"      // IWYU pragma: export
#include "core/theory.hpp"           // IWYU pragma: export
#include "core/tie_breaking.hpp"     // IWYU pragma: export
