#include "sim/experiment.hpp"

#include "util/env.hpp"

namespace cobra::sim {

std::uint64_t default_replicates(std::uint64_t base) {
  return static_cast<std::uint64_t>(util::scaled(
      static_cast<std::int64_t>(base), /*min_value=*/4));
}

}  // namespace cobra::sim
