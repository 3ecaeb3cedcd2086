// Parallel Monte-Carlo replicate runner.
//
// Replicate i always receives the RNG stream (seed, i) from the Philox
// counter construction (rng/stream.hpp), so results are bitwise identical
// for any thread count or schedule. Replicates are claimed one at a time
// by a util::ForkJoinTeam of worker_count() - 1 threads plus the caller
// (just the caller at a thread cap of 1); kernel lanes inside a replicate
// run on that replicate's kernel's own lane team, so replicate threads ×
// lanes is the whole thread count.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "rng/rng.hpp"

namespace cobra::sim {

/// Runs body(replicate, rng) for replicate in [0, count). The body must be
/// thread-safe w.r.t. shared state (typically it writes only to its own
/// index of a pre-sized results vector).
void parallel_replicates(std::uint64_t count, std::uint64_t seed,
                         const std::function<void(std::uint64_t, rng::Rng&)>&
                             body);

/// Convenience: collects one double per replicate.
std::vector<double> run_replicates(
    std::uint64_t count, std::uint64_t seed,
    const std::function<double(std::uint64_t, rng::Rng&)>& body);

/// The worker count parallel_replicates will use (env COBRA_THREADS cap).
int worker_count();

}  // namespace cobra::sim
