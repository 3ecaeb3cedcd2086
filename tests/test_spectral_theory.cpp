#include "spectral/spectral.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "graph/generators.hpp"
#include "spectral/dense.hpp"

namespace cobra::spectral {
namespace {

double dense_lambda(const graph::Graph& g) {
  const auto eig = walk_spectrum_dense(g);
  return std::max(std::fabs(eig.front()), std::fabs(eig[eig.size() - 2]));
}

double dense_lambda2(const graph::Graph& g) {
  const auto eig = walk_spectrum_dense(g);
  return eig[eig.size() - 2];
}

TEST(TheoryLambda, Complete) {
  for (const graph::VertexId n : {3u, 5u, 12u, 30u})
    EXPECT_NEAR(lambda_complete(n), dense_lambda(graph::complete(n)), 1e-10);
}

TEST(TheoryLambda, CycleOddAndEven) {
  EXPECT_NEAR(lambda_cycle(9), dense_lambda(graph::cycle(9)), 1e-10);
  EXPECT_NEAR(lambda_cycle(15), dense_lambda(graph::cycle(15)), 1e-10);
  EXPECT_DOUBLE_EQ(lambda_cycle(10), 1.0);
  EXPECT_NEAR(dense_lambda(graph::cycle(10)), 1.0, 1e-10);
}

TEST(TheoryLambda, Cycle2ndEigenvalue) {
  for (const graph::VertexId n : {8u, 9u, 20u})
    EXPECT_NEAR(lambda2_cycle(n), dense_lambda2(graph::cycle(n)), 1e-10);
}

TEST(TheoryLambda, Hypercube) {
  for (const std::uint32_t d : {3u, 4u, 5u}) {
    EXPECT_NEAR(lambda2_hypercube(d), dense_lambda2(graph::hypercube(d)),
                1e-10);
    EXPECT_NEAR(dense_lambda(graph::hypercube(d)), 1.0, 1e-10);  // bipartite
  }
  EXPECT_DOUBLE_EQ(lambda_lazy_hypercube(4), 1.0 - 0.25);
}

TEST(TheoryLambda, Path2ndEigenvalue) {
  for (const graph::VertexId n : {5u, 9u, 16u})
    EXPECT_NEAR(lambda2_path(n), dense_lambda2(graph::path(n)), 1e-10);
}

TEST(TheoryLambda, TorusSecondEigenvalue) {
  EXPECT_NEAR(lambda2_torus(5, 2), dense_lambda2(graph::torus_power(5, 2)),
              1e-10);
  EXPECT_NEAR(lambda2_torus(4, 3), dense_lambda2(graph::torus_power(4, 3)),
              1e-10);
}

TEST(TheoryLambda, Torus) {
  // Odd sides: |mu_min| = cos(pi/side) wins up to three dimensions, mu_2
  // from five on; even sides are bipartite.
  for (const auto& [side, dim] :
       {std::pair{5u, 2u}, {7u, 2u}, {5u, 3u}, {3u, 5u}, {4u, 2u}, {6u, 3u}})
    EXPECT_NEAR(lambda_torus(side, dim),
                dense_lambda(graph::torus_power(side, dim)), 1e-10)
        << side << "^" << dim;
  EXPECT_DOUBLE_EQ(lambda_torus(9, 2), std::cos(M_PI / 9.0));
  EXPECT_DOUBLE_EQ(lambda_torus(8, 2), 1.0);
}

TEST(TheoryLambda, Petersen) {
  EXPECT_NEAR(lambda_petersen(), dense_lambda(graph::petersen()), 1e-10);
}

TEST(TheoryLambda, FacadeByName) {
  EXPECT_NEAR(*theory_lambda(graph::complete(9)), 1.0 / 8.0, 1e-12);
  EXPECT_NEAR(*theory_lambda(graph::cycle(9)),
              std::cos(M_PI / 9.0), 1e-12);
  EXPECT_DOUBLE_EQ(*theory_lambda(graph::star(6)), 1.0);
  EXPECT_DOUBLE_EQ(*theory_lambda(graph::complete_bipartite(2, 3)), 1.0);
  EXPECT_DOUBLE_EQ(*theory_lambda(graph::petersen()), 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(*theory_lambda(graph::torus_power(9, 2)),
                   std::cos(M_PI / 9.0));
  EXPECT_DOUBLE_EQ(*theory_lambda(graph::torus_power(4, 3)), 1.0);
  EXPECT_FALSE(theory_lambda(graph::barbell(4, 1)).has_value());
  // Mixed or degenerate sides have no closed form here.
  EXPECT_FALSE(theory_lambda(graph::grid({5, 7}, true)).has_value());
  EXPECT_FALSE(theory_lambda(graph::grid({2, 2}, true)).has_value());
}

TEST(GapCondition, MarginScalesAsStated) {
  // margin = (1 - lambda) / sqrt(log n / n).
  const double margin = gap_condition_margin(0.5, 100);
  EXPECT_NEAR(margin, 0.5 / std::sqrt(std::log(100.0) / 100.0), 1e-12);
}

}  // namespace
}  // namespace cobra::spectral
