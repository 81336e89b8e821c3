// dht.hpp — umbrella header for the geochoice DHT application substrate.
#pragma once

#include "dht/chord.hpp"            // IWYU pragma: export
#include "dht/churn.hpp"            // IWYU pragma: export
#include "dht/two_choice_dht.hpp"   // IWYU pragma: export
#include "dht/virtual_servers.hpp"  // IWYU pragma: export
