// Random graph families.
//
// The paper's regular-graph theorems are exercised on random r-regular
// graphs (which are expanders w.h.p. for r >= 3); the general-graph theorem
// additionally uses Erdős–Rényi, small-world and preferential-attachment
// graphs as heterogeneous-degree stress cases.
//
// All generators take an explicit Rng so experiments control determinism.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace cobra::graph {

/// Erdős–Rényi G(n, p) via geometric skip sampling: O(n + m) expected time.
/// Not guaranteed connected; see largest_component / ensure options below.
Graph erdos_renyi_gnp(VertexId n, double p, rng::Rng& rng);

/// Uniform-ish random r-regular simple graph via the pairing (configuration)
/// model with rejection, falling back to local edge-switch repairs after
/// `max_restarts` collisions (repairs introduce negligible bias for the
/// sizes used here). Requires n*r even, 1 <= r < n.
///
/// Draw-stream contract: every rejected attempt draws a full shuffle of
/// the n·r stubs, so the rejection loop's draws are part of the instance.
/// The graph and the state `rng` is left in are pinned by the golden test
/// (tests/test_graph_golden.cpp); skipping attempts known to fail (the
/// success probability is ~ exp(-(r²-1)/4)) would change every instance
/// and needs a generator-version bump with regenerated archives.
///
/// Near-complete degrees (r > (n-1)/2) can stall the repair, which then
/// has too few good edges to switch with: when its guard trips, the
/// result is the complement of a random (n-1-r)-regular graph drawn from
/// the same stream (K_n when r = n-1). Instances the repair finishes are
/// unaffected.
Graph random_regular(VertexId n, std::uint32_t r, rng::Rng& rng,
                     std::uint32_t max_restarts = 64);

/// Watts–Strogatz small world: ring lattice with k/2 neighbours each side
/// (k even), each edge's far endpoint rewired with probability beta
/// (avoiding self-loops/duplicates). beta = 0 is the circulant lattice.
Graph watts_strogatz(VertexId n, std::uint32_t k, double beta, rng::Rng& rng);

/// Barabási–Albert preferential attachment: starts from a star on
/// `edges_per_vertex` + 1 vertices, then each new vertex attaches
/// `edges_per_vertex` edges to distinct existing vertices with probability
/// proportional to degree. Always connected.
Graph barabasi_albert(VertexId n, std::uint32_t edges_per_vertex,
                      rng::Rng& rng);

/// Connected supercritical ER graph: G(n, c·ln(n)/n) resampled (new stream)
/// until connected. c > 1 makes success probability -> 1, so the loop is
/// short; the resample count is capped and checked.
Graph connected_erdos_renyi(VertexId n, double c, rng::Rng& rng,
                            std::uint32_t max_attempts = 64);

/// Random connected r-regular graph: random_regular resampled until
/// connected (for r >= 3 the first sample is connected w.h.p.).
Graph connected_random_regular(VertexId n, std::uint32_t r, rng::Rng& rng,
                               std::uint32_t max_attempts = 64);

}  // namespace cobra::graph
