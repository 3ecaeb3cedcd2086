#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "graph/generators.hpp"
#include "graph/product.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "spectral/dense.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/spectral.hpp"

namespace cobra::spectral {
namespace {

// Families 13-17 are the larger ones: hypercube(6), products of odd
// cycles, a sparse G(n, p) and a long lollipop.
constexpr int kNumFamilies = 18;

class IterativeVsDense : public ::testing::TestWithParam<int> {};

graph::Graph graph_case(int id) {
  rng::Rng rng = rng::make_stream(4242, static_cast<std::uint64_t>(id));
  switch (id) {
    case 0: return graph::complete(24);
    case 1: return graph::cycle(21);            // odd cycle
    case 2: return graph::cycle(20);            // even (bipartite)
    case 3: return graph::petersen();
    case 4: return graph::hypercube(5);         // bipartite
    case 5: return graph::star(30);
    case 6: return graph::lollipop(8, 6);
    case 7: return graph::connected_random_regular(40, 3, rng);
    case 8: return graph::connected_random_regular(50, 6, rng);
    case 9: return graph::connected_erdos_renyi(40, 2.0, rng);
    case 10: return graph::torus_power(5, 2);
    case 11: return graph::barbell(6, 3);
    case 12: return graph::path(17);
    case 13: return graph::hypercube(6);
    case 14:
      return graph::cartesian_product(graph::cycle(15), graph::cycle(15));
    case 15:
      return graph::cartesian_product(graph::cycle(31), graph::cycle(15));
    case 16: return graph::connected_erdos_renyi(600, 2.0, rng);
    default: return graph::lollipop(200, 100);
  }
}

TEST_P(IterativeVsDense, LanczosMatchesJacobi) {
  const graph::Graph g = graph_case(GetParam());
  const auto eig = walk_spectrum_dense(g);  // ascending
  const double mu2 = eig[eig.size() - 2];
  const double mu_min = eig.front();
  const double expected = std::max(std::fabs(mu2), std::fabs(mu_min));

  // The forced-iterative facade: certified to its own residual bound.
  const auto info = compute_lambda(g, 2, /*dense_threshold=*/0);
  EXPECT_FALSE(info.exact);
  EXPECT_NEAR(info.lambda, expected, 1e-10) << g.name();
  EXPECT_LE(info.lambda_err, kLambdaResidualTol) << g.name();
  EXPECT_LE(std::fabs(info.lambda - expected), info.lambda_err + 1e-12)
      << g.name();

  // Ritz values of the deflated operator lie inside its spectrum.
  rng::Rng rng = rng::make_stream(2, static_cast<std::uint64_t>(GetParam()));
  const LanczosResult lz = lanczos_extremes(g, rng);
  EXPECT_LE(lz.mu2, mu2 + 1e-12) << g.name();
  EXPECT_GE(lz.mu_min, mu_min - 1e-12) << g.name();
  EXPECT_LE(lz.steps, g.num_vertices() + 16) << g.name();
}

INSTANTIATE_TEST_SUITE_P(Families, IterativeVsDense,
                         ::testing::Range(0, kNumFamilies));

TEST(Lanczos, OddCycleIsExact) {
  // C_1025's extreme eigenvalues are ~4e-5 apart, its Krylov space has
  // dimension 512: a rule that stops when lambda stalls quits early at
  // 0.9999; the certified solve runs to exhaustion.
  const auto info = compute_lambda(graph::cycle(1025), 1);
  EXPECT_FALSE(info.exact);
  EXPECT_NEAR(info.lambda, std::cos(std::numbers::pi / 1025.0), 1e-10);
  EXPECT_LE(info.steps, 1025u);
}

TEST(Lanczos, RandomRegularMeetsFriedmanBound) {
  // Friedman: random r-regular lambda <= 2 sqrt(r-1)/r + eps w.h.p.
  for (const std::uint32_t r : {3u, 4u, 8u, 16u}) {
    rng::Rng grng = rng::make_stream(20170724, r);
    const graph::Graph g = graph::connected_random_regular(8192, r, grng);
    const auto info = compute_lambda(g, 1);
    const double ramanujan = 2.0 * std::sqrt(r - 1.0) / r;
    EXPECT_LE(info.lambda_err, kLambdaResidualTol) << "r=" << r;
    EXPECT_LE(info.lambda, ramanujan + 0.01) << "r=" << r;
    EXPECT_GE(info.lambda, ramanujan - 0.05) << "r=" << r;
  }
}

TEST(Lanczos, TorusMatchesClosedFormAboveTheDenseThreshold) {
  const graph::Graph g = graph::torus_power(33, 2);  // n = 1089
  const auto info = compute_lambda(g, 1);
  EXPECT_FALSE(info.exact);
  ASSERT_TRUE(theory_lambda(g).has_value());
  EXPECT_NEAR(info.lambda, *theory_lambda(g), 1e-10);
}

TEST(ComputeLambda, DensePathIsExact) {
  const auto info = compute_lambda(graph::petersen());
  EXPECT_TRUE(info.exact);
  EXPECT_NEAR(info.lambda, 2.0 / 3.0, 1e-10);
  EXPECT_NEAR(info.gap, 1.0 / 3.0, 1e-10);
}

TEST(ComputeLambda, IterativePathAgreesWithDense) {
  // Force the iterative path by setting the dense threshold to 0.
  const graph::Graph g = graph::hypercube(6);
  const auto exact = compute_lambda(g, 1, /*dense_threshold=*/256);
  const auto iterative = compute_lambda(g, 1, /*dense_threshold=*/0);
  EXPECT_TRUE(exact.exact);
  EXPECT_FALSE(iterative.exact);
  EXPECT_NEAR(exact.lambda, iterative.lambda, 1e-10);
  EXPECT_EQ(exact.lambda_err, 0.0);
  EXPECT_EQ(exact.steps, 0u);
  EXPECT_GT(iterative.steps, 0u);
  EXPECT_NEAR(exact.lambda, 1.0, 1e-10);  // bipartite
}

TEST(ComputeLambda, CacheReusesIdenticalSpectra) {
  clear_spectral_cache();
  const graph::Graph g = graph::hypercube(6);
  const auto first = compute_lambda_cached(g, 1);
  auto stats = spectral_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);

  // A structurally identical graph built separately hits the cache: this
  // is the sharded-cells case (same generator, same seed, same scale).
  const graph::Graph twin = graph::hypercube(6);
  const auto second = compute_lambda_cached(twin, 1);
  stats = spectral_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(first.lambda, second.lambda);
  EXPECT_EQ(first.exact, second.exact);

  // Different iterative seed or threshold -> different key.
  compute_lambda_cached(g, 2);
  compute_lambda_cached(g, 1, /*dense_threshold=*/0);
  stats = spectral_cache_stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.entries, 3u);

  // A different graph never collides.
  compute_lambda_cached(graph::cycle(64), 1);
  stats = spectral_cache_stats();
  EXPECT_EQ(stats.misses, 4u);
  clear_spectral_cache();
  EXPECT_EQ(spectral_cache_stats().entries, 0u);
}

TEST(ComputeLambda, CachedAgreesWithUncached) {
  clear_spectral_cache();
  for (int id = 0; id < 13; ++id) {
    const graph::Graph g = graph_case(id);
    const auto direct = compute_lambda(g, 3);
    const auto cached = compute_lambda_cached(g, 3);
    EXPECT_EQ(direct.lambda, cached.lambda) << g.name();
    EXPECT_EQ(direct.exact, cached.exact) << g.name();
  }
  clear_spectral_cache();
}

TEST(ComputeLambda, LambdaInUnitInterval) {
  for (int id = 0; id < 13; ++id) {
    const auto info = compute_lambda(graph_case(id));
    EXPECT_GE(info.lambda, 0.0);
    EXPECT_LE(info.lambda, 1.0);
    EXPECT_NEAR(info.gap, 1.0 - info.lambda, 1e-15);
  }
}

TEST(Lanczos, ExtremesBracketSpectrum) {
  const graph::Graph g = graph::complete(30);
  rng::Rng rng = rng::make_stream(3, 0);
  const LanczosResult lz = lanczos_extremes(g, rng);
  // K_30: mu2 = mu_min = -1/29.
  EXPECT_NEAR(lz.mu2, -1.0 / 29.0, 1e-8);
  EXPECT_NEAR(lz.mu_min, -1.0 / 29.0, 1e-8);
}

}  // namespace
}  // namespace cobra::spectral
