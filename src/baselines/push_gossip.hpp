// Push rumour spreading: every round, every INFORMED vertex pushes to one
// uniform random neighbour, and informed vertices stay informed.
//
// This is the classic epidemic broadcast the paper's introduction contrasts
// with COBRA: push reaches everyone in O(log n) on good expanders but its
// per-round transmission count grows to n (every informed vertex keeps
// sending forever), whereas COBRA sends only b messages per *currently
// active* vertex and lets information die out locally.
//
// Runs on the frontier kernel with the informed set as a monotone
// frontier: destinations are keyed by (round key, vertex), so sparse,
// dense and auto are bit-for-bit identical; dense rounds scan the
// informed bitset in ascending id order and merge new adopters
// word-parallel.
#pragma once

#include <cstdint>

#include "baselines/baseline.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace cobra::baselines {

/// Outcome of one push-gossip broadcast.
struct GossipResult {
  std::uint64_t rounds = 0;         ///< rounds until all informed
  std::uint64_t transmissions = 0;  ///< one per informed vertex per round
  bool completed = false;           ///< all vertices informed
};

/// Rounds until all vertices are informed, starting from `start`.
GossipResult push_gossip_cover(const graph::Graph& g, graph::VertexId start,
                               rng::Rng& rng, std::uint64_t max_rounds,
                               const BaselineOptions& options = {});

}  // namespace cobra::baselines
