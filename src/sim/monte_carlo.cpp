#include "sim/monte_carlo.hpp"

#include <algorithm>

#include "rng/stream.hpp"
#include "util/env.hpp"
#include "util/fork_join_team.hpp"

namespace cobra::sim {

int worker_count() { return util::max_threads(); }

void parallel_replicates(
    std::uint64_t count, std::uint64_t seed,
    const std::function<void(std::uint64_t, rng::Rng&)>& body) {
  if (count == 0) return;
  // The caller is one of the `workers` threads; replicates are claimed one
  // at a time (cover times are heavy-tailed, so static chunks would
  // straggle).
  const std::uint64_t workers = std::min<std::uint64_t>(
      count, static_cast<std::uint64_t>(worker_count()));
  util::ForkJoinTeam team(static_cast<std::size_t>(workers - 1));
  team.run(static_cast<std::size_t>(count), [&](std::size_t i) {
    rng::Rng rng = rng::make_stream(seed, i);
    body(i, rng);
  });
}

std::vector<double> run_replicates(
    std::uint64_t count, std::uint64_t seed,
    const std::function<double(std::uint64_t, rng::Rng&)>& body) {
  std::vector<double> results(count, 0.0);
  parallel_replicates(count, seed, [&](std::uint64_t i, rng::Rng& rng) {
    results[i] = body(i, rng);
  });
  return results;
}

}  // namespace cobra::sim
