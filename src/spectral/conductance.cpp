#include "spectral/conductance.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "rng/stream.hpp"
#include "spectral/lanczos.hpp"
#include "util/assert.hpp"

namespace cobra::spectral {

double cut_conductance(const graph::Graph& g,
                       const std::vector<graph::VertexId>& s) {
  const graph::VertexId n = g.num_vertices();
  COBRA_CHECK(!s.empty() && s.size() < n);
  std::vector<bool> in_s(n, false);
  for (const graph::VertexId u : s) in_s[u] = true;

  std::uint64_t d_s = 0, cut = 0;
  for (const graph::VertexId u : s) {
    d_s += g.degree(u);
    for (const graph::VertexId v : g.neighbors(u))
      if (!in_s[v]) ++cut;
  }
  const std::uint64_t d_total = g.degree_sum();
  const std::uint64_t denom = std::min(d_s, d_total - d_s);
  COBRA_CHECK_MSG(denom > 0, "cut side has zero volume");
  return static_cast<double>(cut) / static_cast<double>(denom);
}

double exact_conductance(const graph::Graph& g) {
  const graph::VertexId n = g.num_vertices();
  COBRA_CHECK(n >= 2 && n <= 24);
  const std::uint64_t d_total = g.degree_sum();

  double best = std::numeric_limits<double>::infinity();
  // Fix vertex n-1 outside S: each unordered cut is visited exactly once.
  const std::uint32_t limit = 1u << (n - 1);
  for (std::uint32_t mask = 1; mask < limit; ++mask) {
    std::uint64_t d_s = 0, cut = 0;
    for (graph::VertexId u = 0; u < n - 1; ++u) {
      if (((mask >> u) & 1u) == 0) continue;
      d_s += g.degree(u);
      for (const graph::VertexId v : g.neighbors(u))
        if (v == n - 1 || ((mask >> v) & 1u) == 0) ++cut;
    }
    const std::uint64_t denom = std::min(d_s, d_total - d_s);
    if (denom == 0) continue;
    best = std::min(best, static_cast<double>(cut) /
                              static_cast<double>(denom));
  }
  return best;
}

double sweep_conductance(const graph::Graph& g,
                         const std::vector<double>& score) {
  const graph::VertexId n = g.num_vertices();
  COBRA_CHECK(score.size() == n && n >= 2);

  std::vector<graph::VertexId> order(n);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(),
            [&](graph::VertexId a, graph::VertexId b) {
              return score[a] < score[b];
            });

  std::vector<bool> in_s(n, false);
  const std::uint64_t d_total = g.degree_sum();
  std::uint64_t d_s = 0;
  std::int64_t cut = 0;
  double best = std::numeric_limits<double>::infinity();
  for (graph::VertexId i = 0; i + 1 < n; ++i) {
    const graph::VertexId u = order[i];
    in_s[u] = true;
    d_s += g.degree(u);
    // Adding u flips its edges: edges to S leave the cut, edges to S-bar join.
    for (const graph::VertexId v : g.neighbors(u))
      cut += in_s[v] ? -1 : +1;
    const std::uint64_t denom = std::min(d_s, d_total - d_s);
    if (denom == 0) continue;
    best = std::min(best, static_cast<double>(cut) /
                              static_cast<double>(denom));
  }
  return best;
}

double estimate_conductance(const graph::Graph& g, std::uint64_t seed) {
  const graph::VertexId n = g.num_vertices();
  COBRA_CHECK(n >= 2);
  // A few dozen deflated power steps give a usable Fiedler-ish direction;
  // the sweep bound is valid regardless of convergence quality.
  rng::Rng rng = rng::make_stream(seed, 0xC0DD);
  std::vector<double> x(n), x_scaled(n), y(n), inv_sqrt_deg(n), principal(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    const double d = static_cast<double>(g.degree(u));
    COBRA_CHECK_MSG(d >= 1.0, "isolated vertex");
    inv_sqrt_deg[u] = 1.0 / std::sqrt(d);
    principal[u] = std::sqrt(d);
  }
  double pn = 0.0;
  for (const double value : principal) pn += value * value;
  pn = std::sqrt(pn);
  for (double& value : principal) value /= pn;

  for (double& value : x) value = rng.uniform01() - 0.5;
  for (int it = 0; it < 80; ++it) {
    double c = 0.0;
    for (graph::VertexId u = 0; u < n; ++u) c += x[u] * principal[u];
    for (graph::VertexId u = 0; u < n; ++u) {
      x[u] -= c * principal[u];
      x_scaled[u] = x[u] * inv_sqrt_deg[u];
    }
    // Half-lazy operator (I + N)/2 avoids bipartite sign oscillation.
    apply_normalized_adjacency(g, inv_sqrt_deg, x_scaled, y);
    double yn = 0.0;
    for (graph::VertexId u = 0; u < n; ++u) {
      y[u] = 0.5 * (x[u] + y[u]);
      yn += y[u] * y[u];
    }
    yn = std::sqrt(yn);
    if (yn < 1e-300) break;
    for (graph::VertexId u = 0; u < n; ++u) x[u] = y[u] / yn;
  }
  // Sweep on the D^{-1/2}-scaled embedding (standard Cheeger rounding).
  for (graph::VertexId u = 0; u < n; ++u) x[u] *= inv_sqrt_deg[u];
  return sweep_conductance(g, x);
}

}  // namespace cobra::spectral
