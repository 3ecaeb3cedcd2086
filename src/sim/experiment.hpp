// Workload sizing shared by the experiment cells, the examples and the
// benchmark replay: replicate counts follow the session's --scale /
// COBRA_SCALE multiplier.
#pragma once

#include <cstdint>

namespace cobra::sim {

/// Default replicate count scaled by COBRA_SCALE.
std::uint64_t default_replicates(std::uint64_t base);

}  // namespace cobra::sim
