// net.hpp — umbrella header for the discrete-event network simulator.
//
//   * event_queue.hpp — (time, seq)-ordered deterministic event heap
//   * latency.hpp     — constant / uniform / lognormal link-delay models
//   * message.hpp     — the typed wire protocol (probe/place/lookup)
//   * chord_space.hpp — ChordRing as a GeometricSpace (successor arcs)
//   * simulator.hpp   — message-level Chord routing + wire two-choice
#pragma once

#include "net/chord_space.hpp"  // IWYU pragma: export
#include "net/event_queue.hpp"  // IWYU pragma: export
#include "net/latency.hpp"      // IWYU pragma: export
#include "net/message.hpp"      // IWYU pragma: export
#include "net/simulator.hpp"    // IWYU pragma: export
