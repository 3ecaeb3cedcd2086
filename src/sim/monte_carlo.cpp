#include "sim/monte_carlo.hpp"

#include <algorithm>

#include "rng/stream.hpp"
#include "util/env.hpp"
#include "util/thread_pool.hpp"

namespace cobra::sim {

int worker_count() { return util::max_threads(); }

void parallel_replicates(
    std::uint64_t count, std::uint64_t seed,
    const std::function<void(std::uint64_t, rng::Rng&)>& body) {
  if (count == 0) return;
  const int workers =
      static_cast<int>(std::min<std::uint64_t>(count,
                                               static_cast<std::uint64_t>(
                                                   worker_count())));
  if (workers <= 1) {
    for (std::uint64_t i = 0; i < count; ++i) {
      rng::Rng rng = rng::make_stream(seed, i);
      body(i, rng);
    }
    return;
  }
  util::ThreadPool pool(static_cast<std::size_t>(workers));
  pool.parallel_for_index(static_cast<std::size_t>(count),
                          [&](std::size_t i) {
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
