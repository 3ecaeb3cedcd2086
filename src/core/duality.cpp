#include "core/duality.hpp"

#include <algorithm>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "rng/stream.hpp"
#include "util/bitset.hpp"

namespace cobra::core {

SelectionTable::SelectionTable(const graph::Graph& g, std::uint64_t rounds,
                               const ProcessOptions& options, rng::Rng& rng)
    : n_(g.num_vertices()), rounds_(rounds) {
  options.validate();
  COBRA_CHECK(g.min_degree() >= 1);
  const std::size_t slots = static_cast<std::size_t>(rounds) * n_;
  offsets_.assign(slots + 1, 0);
  targets_.reserve(slots * options.branching.base);

  const Branching& b = options.branching;
  const double lazy = options.laziness;
  for (std::size_t slot = 0; slot < slots; ++slot) {
    const auto u = static_cast<graph::VertexId>(slot % n_);
    const std::uint32_t fanout =
        b.base +
        ((b.extra_prob > 0.0 && rng.bernoulli(b.extra_prob)) ? 1u : 0u);
    const auto nbrs = g.neighbors(u);
    for (std::uint32_t j = 0; j < fanout; ++j) {
      if (lazy > 0.0 && rng.bernoulli(lazy)) {
        targets_.push_back(u);
      } else {
        targets_.push_back(
            nbrs[static_cast<std::size_t>(rng.below(nbrs.size()))]);
      }
    }
    offsets_[slot + 1] = targets_.size();
  }
}

bool cobra_visits_with_table(const graph::Graph& g,
                             const std::vector<graph::VertexId>& start_set,
                             graph::VertexId target,
                             const SelectionTable& table) {
  COBRA_CHECK(!start_set.empty());
  const graph::VertexId n = g.num_vertices();
  util::DynamicBitset active(n), next(n);
  for (const graph::VertexId u : start_set) active.set(u);
  if (active.test(target)) return true;

  for (std::uint64_t t = 1; t <= table.rounds(); ++t) {
    next.reset_all();
    bool any = false;
    for (std::size_t u = active.find_first(); u < n;
         u = active.find_next(u)) {
      for (const graph::VertexId w :
           table.selections(static_cast<graph::VertexId>(u), t)) {
        next.set(w);
        any = true;
      }
    }
    if (next.test(target)) return true;
    active = next;
    if (!any) return false;  // cannot happen (fan-out >= 1), defensive
  }
  return false;
}

bool bips_infects_with_table(const graph::Graph& g, graph::VertexId source,
                             const std::vector<graph::VertexId>& c_set,
                             const SelectionTable& table) {
  COBRA_CHECK(!c_set.empty());
  const graph::VertexId n = g.num_vertices();
  const std::uint64_t T = table.rounds();
  util::DynamicBitset infected(n), next(n);
  infected.set(source);

  for (std::uint64_t s = 1; s <= T; ++s) {
    next.reset_all();
    for (graph::VertexId u = 0; u < n; ++u) {
      if (u == source) {
        next.set(u);
        continue;
      }
      // Time reversal: BIPS round s consumes the table's round T + 1 - s.
      for (const graph::VertexId w : table.selections(u, T + 1 - s)) {
        if (infected.test(w)) {
          next.set(u);
          break;
        }
      }
    }
    infected = next;
  }

  for (const graph::VertexId c : c_set)
    if (infected.test(c)) return true;
  return false;
}

DualityEstimate check_duality(const graph::Graph& g, graph::VertexId v,
                              const std::vector<graph::VertexId>& c_set,
                              std::uint64_t rounds,
                              const ProcessOptions& options,
                              std::uint64_t replicates, std::uint64_t seed) {
  DualityEstimate est;
  est.replicates = replicates;

  std::uint64_t cobra_misses = 0, bips_misses = 0;
  for (std::uint64_t rep = 0; rep < replicates; ++rep) {
    // (a) Coupled check: one shared ω, both indicators must agree.
    {
      rng::Rng rng = rng::make_stream(rng::derive_seed(seed, 1), rep);
      const SelectionTable table(g, rounds, options, rng);
      const bool visited = cobra_visits_with_table(g, c_set, v, table);
      const bool infected = bips_infects_with_table(g, v, c_set, table);
      if (visited != infected) ++est.coupled_disagreements;
    }
    // (b) Independent COBRA estimate of P(Hit(v) > T | C_0 = C).
    {
      rng::Rng rng = rng::make_stream(rng::derive_seed(seed, 2), rep);
      CobraProcess process(g, options);
      process.reset(std::span<const graph::VertexId>(c_set.data(),
                                                     c_set.size()));
      const auto hit = process.run_until_hit(rng, v, rounds);
      if (!hit.has_value()) ++cobra_misses;
    }
    // (c) Independent BIPS estimate of P(C ∩ A_T = ∅ | A_0 = {v}).
    {
      rng::Rng rng = rng::make_stream(rng::derive_seed(seed, 3), rep);
      BipsProcess process(g, v, BipsOptions{options});
      for (std::uint64_t t = 0; t < rounds; ++t) process.step(rng);
      bool intersects = false;
      for (const graph::VertexId c : c_set)
        if (process.is_infected(c)) {
          intersects = true;
          break;
        }
      if (!intersects) ++bips_misses;
    }
  }
  est.cobra_miss = static_cast<double>(cobra_misses) /
                   static_cast<double>(replicates);
  est.bips_miss = static_cast<double>(bips_misses) /
                  static_cast<double>(replicates);
  return est;
}

}  // namespace cobra::core
