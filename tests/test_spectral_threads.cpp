// The spectral solves run their matvec rows on a team of
// util::max_threads() - 1 workers (spectral/lanczos.hpp) while every dot
// product and norm stays serial and in index order, so their results must
// be bit-identical at every thread count: the doubles are compared with
// EXPECT_EQ, not NEAR. Built for the TSan job too, which checks the row
// chunks share nothing but the read-only inputs.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "spectral/conductance.hpp"
#include "spectral/lanczos.hpp"
#include "util/env.hpp"

namespace cobra::spectral {
namespace {

struct Solve {
  LanczosResult lanczos;
  double phi = 0.0;
};

// Regular and irregular, all larger than one matvec chunk: the Theorem 1.2
// experiment's random-regular size, the odd cycle whose Krylov space only
// exhausts after n/2 steps, and a preferential-attachment graph.
std::vector<graph::Graph> invariance_graphs() {
  rng::Rng rng = rng::make_stream(77, 0);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::connected_random_regular(8192, 3, rng));
  graphs.push_back(graph::cycle(8193));
  graphs.push_back(graph::barabasi_albert(6000, 2, rng));
  return graphs;
}

Solve solve_at(const graph::Graph& g, int threads) {
  util::set_threads_override(threads);
  Solve s;
  rng::Rng rng = rng::make_stream(5, 0x5eed);
  s.lanczos = lanczos_extremes(g, rng);
  s.phi = estimate_conductance(g, 11);
  util::clear_env_overrides();
  return s;
}

TEST(SpectralThreads, MatvecTeamSizeFollowsTheThreadCap) {
  const graph::Graph small = graph::cycle(kMatvecChunkRows);
  const graph::Graph two_chunks = graph::cycle(kMatvecChunkRows + 1);
  const graph::Graph large = graph::cycle(8 * kMatvecChunkRows);
  for (const int threads : {1, 2, 3, 4}) {
    util::set_threads_override(threads);
    EXPECT_EQ(matvec_workers(small), 0u) << "one chunk spawns no thread";
    EXPECT_EQ(matvec_workers(two_chunks), threads > 1 ? 1u : 0u);
    EXPECT_EQ(matvec_workers(large), static_cast<std::size_t>(threads - 1));
  }
  util::clear_env_overrides();
}

TEST(SpectralThreads, LanczosAndConductanceAreThreadCountInvariant) {
  for (const graph::Graph& g : invariance_graphs()) {
    const Solve serial = solve_at(g, 1);
    EXPECT_LE(serial.lanczos.lambda_err, kLambdaResidualTol) << g.name();
    for (const int threads : {2, 3, 4}) {
      const Solve team = solve_at(g, threads);
      const std::string where =
          g.name() + " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(team.lanczos.mu2, serial.lanczos.mu2) << where;
      EXPECT_EQ(team.lanczos.mu_min, serial.lanczos.mu_min) << where;
      EXPECT_EQ(team.lanczos.lambda, serial.lanczos.lambda) << where;
      EXPECT_EQ(team.lanczos.lambda_err, serial.lanczos.lambda_err) << where;
      EXPECT_EQ(team.lanczos.steps, serial.lanczos.steps) << where;
      EXPECT_EQ(team.phi, serial.phi) << where;
    }
  }
}

TEST(SpectralThreads, TeamMatvecMatchesSerialRows) {
  const graph::Graph g = invariance_graphs().back();
  const graph::VertexId n = g.num_vertices();
  std::vector<double> inv_sqrt_deg(n), x(n), serial(n), parallel(n);
  rng::Rng rng = rng::make_stream(6, 0);
  for (graph::VertexId u = 0; u < n; ++u) {
    inv_sqrt_deg[u] = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
    x[u] = rng.uniform01() - 0.5;
  }
  util::ForkJoinTeam none(0), three(3);
  apply_normalized_adjacency(g, inv_sqrt_deg, x, serial, none);
  apply_normalized_adjacency(g, inv_sqrt_deg, x, parallel, three);
  for (graph::VertexId u = 0; u < n; ++u) {
    double acc = 0.0;
    for (const graph::VertexId v : g.neighbors(u))
      acc += x[v] * inv_sqrt_deg[v];
    ASSERT_EQ(serial[u], acc * inv_sqrt_deg[u]) << "row " << u;
    ASSERT_EQ(parallel[u], serial[u]) << "row " << u;
  }
}

}  // namespace
}  // namespace cobra::spectral
