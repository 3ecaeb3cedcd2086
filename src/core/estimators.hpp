// Monte-Carlo estimators for the paper's headline quantities:
// COBRA cover times, COBRA hit times, BIPS infection times and survival
// probabilities. Replicates run in parallel with deterministic streams.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/graph.hpp"

namespace cobra::core {

/// Replicate samples with time-out accounting. `rounds` only contains the
/// replicates that finished; a nonzero `timeouts` means `max_rounds` was too
/// small for some replicates (experiments treat this as a red flag and size
/// max_rounds from the paper's bounds).
struct TimeSamples {
  std::vector<double> rounds;
  std::vector<double> transmissions;  // COBRA only; empty for BIPS
  std::uint64_t timeouts = 0;
};

/// cover(start) over `replicates` independent COBRA runs. A non-empty
/// `lead` runs on the calling thread while the replicates do (see
/// sim::parallel_replicates); it does not change the samples.
TimeSamples estimate_cobra_cover(const graph::Graph& g,
                                 const ProcessOptions& options,
                                 graph::VertexId start,
                                 std::uint64_t replicates, std::uint64_t seed,
                                 std::uint64_t max_rounds,
                                 const std::function<void()>& lead = {});

/// estimate_cobra_cover at a round cap that only `solve` can tell (the
/// Theorem 1.2 cell's cap needs lambda): the replicates run at
/// `provisional_cap` while solve() runs on the calling thread as their
/// lead, and solve() returns the true cap, which must be at least the
/// provisional one. Only when a replicate timed out at the provisional cap
/// does the estimate rerun at the true cap. A replicate that covers within
/// the provisional cap covers identically within the true one (it draws
/// the same stream), so the result always equals estimate_cobra_cover at
/// the true cap.
TimeSamples estimate_cobra_cover_during_solve(
    const graph::Graph& g, const ProcessOptions& options,
    graph::VertexId start, std::uint64_t replicates, std::uint64_t seed,
    std::uint64_t provisional_cap,
    const std::function<std::uint64_t()>& solve);

/// Hit(start -> target) over `replicates` independent COBRA runs.
TimeSamples estimate_cobra_hit(const graph::Graph& g,
                               const ProcessOptions& options,
                               graph::VertexId start, graph::VertexId target,
                               std::uint64_t replicates, std::uint64_t seed,
                               std::uint64_t max_rounds);

/// infec(source) over `replicates` independent BIPS runs.
TimeSamples estimate_bips_infection(const graph::Graph& g,
                                    const BipsOptions& options,
                                    graph::VertexId source,
                                    std::uint64_t replicates,
                                    std::uint64_t seed,
                                    std::uint64_t max_rounds);

/// Per-round infection sizes |A_t| averaged over replicates, t = 0..rounds
/// (the growth-curve data for Lemma 4.1 / Corollary 5.2 experiments).
std::vector<double> average_bips_growth(const graph::Graph& g,
                                        const BipsOptions& options,
                                        graph::VertexId source,
                                        std::uint64_t rounds,
                                        std::uint64_t replicates,
                                        std::uint64_t seed);

}  // namespace cobra::core
