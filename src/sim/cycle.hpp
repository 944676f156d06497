// The simulator's cycle count. Each clock (the accelerator's, the NoC's)
// counts its own cycles from 0 in this type.
#pragma once

#include <cstdint>

namespace nova::sim {

using Cycle = std::uint64_t;

}  // namespace nova::sim
