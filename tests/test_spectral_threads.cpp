// The spectral solves run on their calling thread (spectral/lanczos.hpp):
// the matvec rows, dot products and norms are plain loops in index order,
// so their results cannot depend on the process thread cap or on what
// else the process runs. Goldens pin the bits themselves — the doubles
// are compared with EXPECT_EQ, not NEAR — at thread caps 1 and 4 and
// inside a fork-join team's lead, where the solve runs beside busy
// replicate workers with its thread cap at 1. Built for the TSan job too,
// which checks that a lead's solve shares nothing with the team's workers.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "spectral/conductance.hpp"
#include "spectral/lanczos.hpp"
#include "util/env.hpp"
#include "util/fork_join_team.hpp"

namespace cobra::spectral {
namespace {

struct Solve {
  LanczosResult lanczos;
  double phi = 0.0;
};

// lanczos_extremes and estimate_conductance bits as hexfloats. They are
// also the bits of a matvec that multiplies x[v] by deg(v)^{-1/2} on every
// edge, since the pre-scaled matvec sums the same products in the same
// order; any change to the order or rounding of a solve's arithmetic
// shows here.
struct Golden {
  const char* name;
  double lambda, mu2, mu_min, lambda_err;
  std::uint32_t steps;
  double phi;
};

constexpr Golden kGoldens[] = {
    {"random_regular(8192,r=3)", 0x1.e2db0aebcefdcp-1, 0x1.e2630aa472af1p-1,
     -0x1.e2db0aebcefdcp-1, 0x1.53dd3e220fa59p-27, 387,
     0x1.f19387c64e1f2p-4},
    {"random_regular(8192,r=32)", 0x1.640fc4e5205ecp-2,
     0x1.62bf344f5e5cdp-2, -0x1.640fc4e5205ecp-2, 0x1.4bf55e79cb2d9p-27, 196,
     0x1.9078p-2},
    {"cycle(1025)", 0x1.ffff6264f9291p-1, 0x1.fffd899445ac1p-1,
     -0x1.ffff6264f9291p-1, 0x1.c1932820a1d66p-52, 512,
     0x1.1a7b9611a7b96p-5},
    {"torus(45x45)", 0x1.fec0b7170fff6p-1, 0x1.fd82354984a3bp-1,
     -0x1.fec0b7170fff6p-1, 0x1.494767d1d4c73p-27, 92, 0x1.5246d05dbd43p-5},
    {"cycle(8193)", 0x1.fffffd887fdfap-1, 0x1.fffff621ff85ap-1,
     -0x1.fffffd887fdfap-1, 0x1.7bc4ad82bb1acp-47, 4096,
     0x1.0919ab45fa5ap-5},
    {"barabasi_albert(6000,m=2)", 0x1.ac1c813e73d1dp-1,
     0x1.ac1c813e73d1dp-1, -0x1.abd9f5b89c866p-1, 0x1.4050e1043f18ap-27, 232,
     0x1.947a55695dd78p-3},
};

graph::Graph preferential_attachment() {
  rng::Rng rng = rng::make_stream(77, 0);
  return graph::barabasi_albert(6000, 2, rng);
}

// The golden graphs, in kGoldens order: the Theorem 1.2 experiment's
// random-regular size at its smallest and largest degree, an odd cycle and
// an odd torus (tiny gaps, long solves), the odd cycle whose Krylov space
// only exhausts after n/2 steps at that size, and an irregular graph.
std::vector<graph::Graph> golden_graphs() {
  std::vector<graph::Graph> graphs;
  for (const std::uint32_t r : {3u, 32u}) {
    rng::Rng rng = rng::make_stream(77, r);
    graphs.push_back(graph::connected_random_regular(8192, r, rng));
  }
  graphs.push_back(graph::cycle(1025));
  graphs.push_back(graph::torus_power(45, 2));
  graphs.push_back(graph::cycle(8193));
  graphs.push_back(preferential_attachment());
  return graphs;
}

Solve golden_solve(const graph::Graph& g) {
  Solve s;
  rng::Rng rng = rng::make_stream(5, 0x5eed);
  s.lanczos = lanczos_extremes(g, rng);
  s.phi = estimate_conductance(g, 11);
  return s;
}

void expect_golden(const Solve& s, const Golden& golden,
                   const std::string& where) {
  EXPECT_EQ(s.lanczos.lambda, golden.lambda) << where;
  EXPECT_EQ(s.lanczos.mu2, golden.mu2) << where;
  EXPECT_EQ(s.lanczos.mu_min, golden.mu_min) << where;
  EXPECT_EQ(s.lanczos.lambda_err, golden.lambda_err) << where;
  EXPECT_EQ(s.lanczos.steps, golden.steps) << where;
  EXPECT_EQ(s.phi, golden.phi) << where;
  EXPECT_LE(s.lanczos.lambda_err, kLambdaResidualTol) << where;
}

TEST(SpectralThreads, SolvesMatchTheirGoldensAtOneAndFourThreads) {
  const std::vector<graph::Graph> graphs = golden_graphs();
  for (const int threads : {1, 4}) {
    util::set_threads_override(threads);
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      ASSERT_EQ(graphs[i].name(), kGoldens[i].name);
      expect_golden(golden_solve(graphs[i]), kGoldens[i],
                    graphs[i].name() + " at " + std::to_string(threads) +
                        " threads");
    }
  }
  util::clear_env_overrides();
}

TEST(SpectralThreads, SolvesMatchTheirGoldensAsATeamsLead) {
  // The Theorem 1.2 cell's shape: three workers claim busy indices while
  // the caller solves, with the process thread cap at 4.
  const std::vector<graph::Graph> graphs = golden_graphs();
  util::set_threads_override(4);
  util::ForkJoinTeam team(3);
  std::vector<Solve> solves(graphs.size());
  std::atomic<std::uint64_t> spin_sink{0};
  team.run(
      64,
      [&](std::size_t i) {
        std::uint64_t x = i;
        for (int k = 0; k < 20000; ++k) x = x * 6364136223846793005ull + 1;
        spin_sink.fetch_add(x, std::memory_order_relaxed);
      },
      [&] {
        for (std::size_t i = 0; i < graphs.size(); ++i)
          solves[i] = golden_solve(graphs[i]);
      });
  util::clear_env_overrides();
  for (std::size_t i = 0; i < graphs.size(); ++i)
    expect_golden(solves[i], kGoldens[i], graphs[i].name() + " as a lead");
}

// Regular and irregular, solved at every thread cap from 1 to 4: the
// Theorem 1.2 experiment's random-regular size, the odd cycle whose Krylov
// space only exhausts after n/2 steps, and a preferential-attachment graph
// drawn from the same stream as the regular one.
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
  const Solve s = golden_solve(g);
  util::clear_env_overrides();
  return s;
}

TEST(SpectralThreads, LanczosAndConductanceAreThreadCountInvariant) {
  for (const graph::Graph& g : invariance_graphs()) {
    const Solve serial = solve_at(g, 1);
    EXPECT_LE(serial.lanczos.lambda_err, kLambdaResidualTol) << g.name();
    for (const int threads : {2, 3, 4}) {
      const Solve other = solve_at(g, threads);
      const std::string where =
          g.name() + " at " + std::to_string(threads) + " threads";
      EXPECT_EQ(other.lanczos.mu2, serial.lanczos.mu2) << where;
      EXPECT_EQ(other.lanczos.mu_min, serial.lanczos.mu_min) << where;
      EXPECT_EQ(other.lanczos.lambda, serial.lanczos.lambda) << where;
      EXPECT_EQ(other.lanczos.lambda_err, serial.lanczos.lambda_err) << where;
      EXPECT_EQ(other.lanczos.steps, serial.lanczos.steps) << where;
      EXPECT_EQ(other.phi, serial.phi) << where;
    }
  }
}

TEST(SpectralThreads, MatvecRowsSumUnscaledProductsInAdjacencyOrder) {
  const graph::Graph g = preferential_attachment();
  const graph::VertexId n = g.num_vertices();
  std::vector<double> inv_sqrt_deg(n), x(n), scaled_x(n), y(n);
  rng::Rng rng = rng::make_stream(6, 0);
  for (graph::VertexId u = 0; u < n; ++u) {
    inv_sqrt_deg[u] = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
    x[u] = rng.uniform01() - 0.5;
    scaled_x[u] = x[u] * inv_sqrt_deg[u];
  }
  apply_normalized_adjacency(g, inv_sqrt_deg, scaled_x, y);
  // Each row sums the products a matvec on the unscaled x forms, in
  // adjacency order.
  for (graph::VertexId u = 0; u < n; ++u) {
    double acc = 0.0;
    for (const graph::VertexId v : g.neighbors(u))
      acc += x[v] * inv_sqrt_deg[v];
    ASSERT_EQ(y[u], acc * inv_sqrt_deg[u]) << "row " << u;
  }
}

}  // namespace
}  // namespace cobra::spectral
