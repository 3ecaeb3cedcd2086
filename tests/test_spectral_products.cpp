// Large-scale spectral property tests: the Cartesian-product rule gives
// exact lambda for graphs far beyond the dense-solver range, pinning the
// Lanczos path with closed-form ground truth at realistic sizes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/generators.hpp"
#include "graph/product.hpp"
#include "rng/stream.hpp"
#include "spectral/lanczos.hpp"
#include "spectral/spectral.hpp"

namespace cobra::spectral {
namespace {

// Exact lambda (max |mu_i|, i >= 2) of C_a box C_b from the cosine spectra.
double torus_lambda_exact(graph::VertexId a, graph::VertexId b) {
  double best = -1.0;
  for (graph::VertexId j = 0; j < a; ++j)
    for (graph::VertexId k = 0; k < b; ++k) {
      if (j == 0 && k == 0) continue;  // principal eigenvalue 1
      const double mu =
          (std::cos(2.0 * M_PI * j / a) + std::cos(2.0 * M_PI * k / b)) / 2.0;
      best = std::max(best, std::fabs(mu));
    }
  return best;
}

class TorusLambda
    : public ::testing::TestWithParam<std::pair<graph::VertexId,
                                                graph::VertexId>> {};

TEST_P(TorusLambda, LanczosMatchesClosedForm) {
  const auto [a, b] = GetParam();
  const graph::Graph g =
      graph::cartesian_product(graph::cycle(a), graph::cycle(b));
  const double exact = torus_lambda_exact(a, b);
  const auto info = compute_lambda(g, /*seed=*/9, /*dense_threshold=*/0);
  EXPECT_FALSE(info.exact);  // forced onto the iterative path
  EXPECT_NEAR(info.lambda, exact, 1e-10) << "C_" << a << " box C_" << b;
  EXPECT_LE(std::fabs(info.lambda - exact), info.lambda_err + 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    OddTori, TorusLambda,
    ::testing::Values(std::make_pair(15u, 15u), std::make_pair(31u, 15u),
                      std::make_pair(45u, 31u), std::make_pair(63u, 63u)),
    [](const auto& info) {
      std::string name = "c";
      name += std::to_string(info.param.first);
      name += 'x';
      name += std::to_string(info.param.second);
      return name;
    });

TEST(SpectralProducts, HypercubeViaK2PowersAtScale) {
  // Q_d = K_2^box d has mu2 = 1 - 2/d; test the Lanczos value of mu2 via
  // lanczos_extremes on d up to 12 (n = 4096).
  for (const std::uint32_t d : {8u, 10u, 12u}) {
    const graph::Graph g = graph::cartesian_power(graph::complete(2), d);
    rng::Rng rng = rng::make_stream(77, d);
    const auto lz = lanczos_extremes(g, rng);
    EXPECT_NEAR(lz.mu2, 1.0 - 2.0 / d, 1e-10) << "d=" << d;
    EXPECT_NEAR(lz.mu_min, -1.0, 1e-10) << "d=" << d;  // bipartite
  }
}

TEST(SpectralProducts, CompleteTimesCompleteLambda) {
  // K_a box K_b (the rook's graph): adjacency eigenvalues are known; the
  // walk eigenvalues are weighted means of {1, -1/(a-1)} x {1, -1/(b-1)}.
  const graph::VertexId a = 20, b = 30;
  const graph::Graph g =
      graph::cartesian_product(graph::complete(a), graph::complete(b));
  double exact = -1.0;
  const double mus_a[] = {1.0, -1.0 / (a - 1)};
  const double mus_b[] = {1.0, -1.0 / (b - 1)};
  for (const double ma : mus_a)
    for (const double mb : mus_b) {
      if (ma == 1.0 && mb == 1.0) continue;
      exact = std::max(
          exact, std::fabs(graph::cartesian_walk_eigenvalue(ma, a - 1, mb,
                                                            b - 1)));
    }
  const auto info = compute_lambda(g, 11, /*dense_threshold=*/0);
  EXPECT_NEAR(info.lambda, exact, 1e-10);
}

TEST(SpectralProducts, GapConditionMarginOnProducts) {
  // Products of expanders keep a healthy margin for Theorem 1.2's regime
  // condition; products of cycles do not. Sanity-check the classifier.
  const graph::Graph good =
      graph::cartesian_product(graph::complete(16), graph::complete(16));
  const auto gi = compute_lambda(good, 13);
  EXPECT_GT(gap_condition_margin(gi.lambda, good.num_vertices()), 1.0);

  const graph::Graph slow =
      graph::cartesian_product(graph::cycle(45), graph::cycle(45));
  const auto si = compute_lambda(slow, 14, /*dense_threshold=*/0);
  EXPECT_LT(gap_condition_margin(si.lambda, slow.num_vertices()), 1.0);
}

}  // namespace
}  // namespace cobra::spectral
