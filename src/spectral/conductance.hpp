// Conductance phi(G) = min over cuts S (with d(S) <= m) of E(S, S_bar)/d(S).
//
// The paper compares its Theorem 1.2 against the SPAA'16 bound
// O((r^4 / phi^2) log^2 n), and uses Cheeger's inequality 1 - lambda >= phi^2/2
// to relate the two. We provide:
//   * exact conductance by subset enumeration (n <= 24, test oracle),
//   * a sweep-cut upper bound from a spectral-ish ordering (large graphs).
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace cobra::spectral {

/// Exact conductance by enumerating all 2^(n-1) cuts. Requires 2 <= n <= 24.
double exact_conductance(const graph::Graph& g);

/// Conductance of the specific cut S (S non-empty, proper).
double cut_conductance(const graph::Graph& g,
                       const std::vector<graph::VertexId>& s);

/// Sweep cut: sorts vertices by `score`, evaluates every prefix cut, returns
/// the best conductance found (an upper bound on phi). With a Fiedler-like
/// score this is the Cheeger rounding; with any score it is still valid.
double sweep_conductance(const graph::Graph& g,
                         const std::vector<double>& score);

/// Convenience: sweep over the second eigenvector direction obtained from a
/// few deflated power iterations. Upper bound on phi. Runs on the calling
/// thread, so the result does not depend on the thread count.
double estimate_conductance(const graph::Graph& g, std::uint64_t seed = 1);

}  // namespace cobra::spectral
