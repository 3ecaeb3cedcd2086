#include "core/estimators.hpp"

#include <atomic>

#include "sim/monte_carlo.hpp"
#include "util/assert.hpp"
#include "util/fork_join_team.hpp"

namespace cobra::core {

namespace {

constexpr double kTimeoutSentinel = -1.0;

// Refuses a replicate count the replicate fan-out cannot claim, before
// any per-replicate vector is allocated.
void check_replicates(std::uint64_t replicates) {
  COBRA_CHECK_MSG(
      replicates >= 1 && replicates < util::ForkJoinTeam::kCountLimit,
      "replicate count " << replicates << " is outside [1, "
                         << util::ForkJoinTeam::kCountLimit - 1 << "]");
}

// Builds the sampler (a lazy process's degree-bucketed alias tables) a
// single time so every replicate (and thread) shares it instead of
// rebuilding per process.
ProcessOptions share_sampler(const graph::Graph& g,
                             const ProcessOptions& options) {
  ProcessOptions resolved = options;
  if (resolved.sampler == nullptr)
    resolved.sampler =
        std::make_shared<const NeighborSampler>(g, resolved.laziness);
  return resolved;
}

TimeSamples collect(std::vector<double> rounds,
                    std::vector<double> transmissions) {
  TimeSamples out;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    if (rounds[i] == kTimeoutSentinel) {
      ++out.timeouts;
      continue;
    }
    out.rounds.push_back(rounds[i]);
    if (!transmissions.empty()) out.transmissions.push_back(transmissions[i]);
  }
  return out;
}

}  // namespace

TimeSamples estimate_cobra_cover(const graph::Graph& g,
                                 const ProcessOptions& options,
                                 graph::VertexId start,
                                 std::uint64_t replicates, std::uint64_t seed,
                                 std::uint64_t max_rounds) {
  check_replicates(replicates);
  const ProcessOptions shared = share_sampler(g, options);
  std::vector<double> rounds(replicates, 0.0);
  std::vector<double> transmissions(replicates, 0.0);
  sim::parallel_replicates(replicates, seed,
                           [&](std::uint64_t i, rng::Rng& rng) {
    CobraProcess process(g, shared);
    process.reset(start);
    const auto cover = process.run_until_cover(rng, max_rounds);
    rounds[i] = cover.has_value() ? static_cast<double>(*cover)
                                  : kTimeoutSentinel;
    transmissions[i] = static_cast<double>(process.transmissions());
  });
  return collect(std::move(rounds), std::move(transmissions));
}

TimeSamples estimate_cobra_hit(const graph::Graph& g,
                               const ProcessOptions& options,
                               graph::VertexId start, graph::VertexId target,
                               std::uint64_t replicates, std::uint64_t seed,
                               std::uint64_t max_rounds) {
  check_replicates(replicates);
  const ProcessOptions shared = share_sampler(g, options);
  std::vector<double> rounds(replicates, 0.0);
  std::vector<double> transmissions(replicates, 0.0);
  sim::parallel_replicates(replicates, seed,
                           [&](std::uint64_t i, rng::Rng& rng) {
    CobraProcess process(g, shared);
    process.reset(start);
    const auto hit = process.run_until_hit(rng, target, max_rounds);
    rounds[i] =
        hit.has_value() ? static_cast<double>(*hit) : kTimeoutSentinel;
    transmissions[i] = static_cast<double>(process.transmissions());
  });
  return collect(std::move(rounds), std::move(transmissions));
}

TimeSamples estimate_bips_infection(const graph::Graph& g,
                                    const BipsOptions& options,
                                    graph::VertexId source,
                                    std::uint64_t replicates,
                                    std::uint64_t seed,
                                    std::uint64_t max_rounds) {
  check_replicates(replicates);
  const BipsOptions shared{share_sampler(g, options.process)};
  std::vector<double> rounds(replicates, 0.0);
  sim::parallel_replicates(replicates, seed,
                           [&](std::uint64_t i, rng::Rng& rng) {
    BipsProcess process(g, source, shared);
    const auto full = process.run_until_full(rng, max_rounds);
    rounds[i] =
        full.has_value() ? static_cast<double>(*full) : kTimeoutSentinel;
  });
  return collect(std::move(rounds), {});
}

std::vector<double> average_bips_growth(const graph::Graph& g,
                                        const BipsOptions& options,
                                        graph::VertexId source,
                                        std::uint64_t rounds,
                                        std::uint64_t replicates,
                                        std::uint64_t seed) {
  check_replicates(replicates);
  const BipsOptions shared{share_sampler(g, options.process)};
  std::vector<double> acc(rounds + 1, 0.0);
  std::vector<std::vector<double>> per_rep(replicates);
  sim::parallel_replicates(replicates, seed,
                           [&](std::uint64_t i, rng::Rng& rng) {
    BipsProcess process(g, source, shared);
    std::vector<double> sizes;
    sizes.reserve(rounds + 1);
    sizes.push_back(static_cast<double>(process.infected_count()));
    for (std::uint64_t t = 0; t < rounds; ++t) {
      process.step(rng);
      sizes.push_back(static_cast<double>(process.infected_count()));
    }
    per_rep[i] = std::move(sizes);
  });
  for (const auto& sizes : per_rep)
    for (std::size_t t = 0; t < sizes.size(); ++t) acc[t] += sizes[t];
  for (double& value : acc) value /= static_cast<double>(replicates);
  return acc;
}

}  // namespace cobra::core
