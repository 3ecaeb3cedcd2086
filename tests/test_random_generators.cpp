#include "graph/random_generators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <utility>

#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"

namespace cobra::graph {
namespace {

rng::Rng test_rng(std::uint64_t salt) { return rng::make_stream(777, salt); }

TEST(ErdosRenyi, EdgeCountConcentrates) {
  auto rng = test_rng(1);
  const VertexId n = 400;
  const double p = 0.05;
  const double expected =
      p * static_cast<double>(n) * (n - 1) / 2.0;  // ~3990
  double total = 0.0;
  constexpr int kSamples = 20;
  for (int s = 0; s < kSamples; ++s)
    total += static_cast<double>(erdos_renyi_gnp(n, p, rng).num_edges());
  const double mean = total / kSamples;
  // sd of one sample ~ sqrt(expected) ~ 63; mean of 20 has sd ~ 14.
  EXPECT_NEAR(mean, expected, 5 * std::sqrt(expected / kSamples));
}

TEST(ErdosRenyi, ExtremeProbabilities) {
  auto rng = test_rng(2);
  EXPECT_EQ(erdos_renyi_gnp(50, 0.0, rng).num_edges(), 0u);
  const Graph dense = erdos_renyi_gnp(50, 1.0, rng);
  EXPECT_EQ(dense.num_edges(), 50u * 49 / 2);
}

TEST(ErdosRenyi, NoSelfLoopsOrDuplicates) {
  auto rng = test_rng(3);
  // Graph construction itself validates simplicity; build a few.
  for (int i = 0; i < 5; ++i)
    EXPECT_NO_THROW(erdos_renyi_gnp(200, 0.1, rng));
}

TEST(ErdosRenyi, SmallProbabilityStillWorks) {
  auto rng = test_rng(4);
  const Graph g = erdos_renyi_gnp(1000, 1e-5, rng);
  EXPECT_LT(g.num_edges(), 60u);  // expected ~5
}

TEST(ConnectedErdosRenyi, ProducesConnectedGraph) {
  auto rng = test_rng(5);
  const Graph g = connected_erdos_renyi(300, 2.0, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_EQ(g.num_vertices(), 300u);
}

TEST(RandomRegular, ExactDegrees) {
  auto rng = test_rng(6);
  for (const std::uint32_t r : {1u, 2u, 3u, 4u, 8u, 16u}) {
    const VertexId n = (r % 2 == 0) ? 101 : 100;  // n*r must be even
    const Graph g = random_regular(n, r, rng);
    EXPECT_TRUE(g.is_regular()) << "r=" << r;
    EXPECT_EQ(g.max_degree(), r) << "r=" << r;
    EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * r / 2);
  }
}

TEST(RandomRegular, LargeDegreeUsesRepairPath) {
  auto rng = test_rng(7);
  // r = 24: pairing rejection would essentially never succeed, so this
  // exercises the switch-repair fallback.
  const Graph g = random_regular(200, 24, rng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 24u);
}

TEST(RandomRegular, NearCompleteDegreesBuild) {
  // The switch repair stalls this close to K_n, so these take the
  // complement of a random (n-1-r)-regular graph.
  const std::pair<VertexId, std::uint32_t> rows[] = {
      {10, 9}, {16, 15}, {33, 30}, {40, 38}};
  for (const auto& [n, r] : rows) {
    auto rng1 = test_rng(16);
    auto rng2 = test_rng(16);
    const Graph g = random_regular(n, r, rng1);
    EXPECT_TRUE(g.is_regular()) << "n=" << n << " r=" << r;
    EXPECT_EQ(g.max_degree(), r) << "n=" << n << " r=" << r;
    EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * r / 2);
    for (VertexId u = 0; u < n; ++u) {
      const auto nbrs = g.neighbors(u);
      EXPECT_TRUE(std::adjacent_find(nbrs.begin(), nbrs.end(),
                                     std::greater_equal<>()) == nbrs.end())
          << "vertex " << u << " has a repeated neighbour";
      EXPECT_TRUE(std::find(nbrs.begin(), nbrs.end(), u) == nbrs.end())
          << "vertex " << u << " has a self-loop";
    }
    EXPECT_EQ(g.edges(), random_regular(n, r, rng2).edges());
    EXPECT_EQ(rng1.next_u64(), rng2.next_u64());  // same stream state
  }
  auto rng = test_rng(17);
  EXPECT_EQ(random_regular(16, 15, rng).edges(), complete(16).edges());
}

TEST(RandomRegular, RejectsOddProduct) {
  auto rng = test_rng(8);
  EXPECT_THROW(random_regular(7, 3, rng), util::CheckError);
  EXPECT_THROW(random_regular(5, 5, rng), util::CheckError);
}

TEST(ConnectedRandomRegular, Connected) {
  auto rng = test_rng(9);
  const Graph g = connected_random_regular(150, 3, rng);
  EXPECT_TRUE(is_connected(g));
  EXPECT_TRUE(g.is_regular());
}

TEST(WattsStrogatz, PreservesEdgeCount) {
  auto rng = test_rng(10);
  const VertexId n = 120;
  const std::uint32_t k = 6;
  for (const double beta : {0.0, 0.1, 0.5, 1.0}) {
    const Graph g = watts_strogatz(n, k, beta, rng);
    EXPECT_EQ(g.num_edges(), static_cast<std::uint64_t>(n) * k / 2)
        << "beta=" << beta;
  }
}

TEST(WattsStrogatz, BetaZeroIsRingLattice) {
  auto rng = test_rng(11);
  const Graph g = watts_strogatz(30, 4, 0.0, rng);
  EXPECT_TRUE(g.is_regular());
  EXPECT_EQ(g.max_degree(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(0, 29));
  EXPECT_TRUE(g.has_edge(0, 28));
}

TEST(WattsStrogatz, RewiringShrinksDiameter) {
  auto rng = test_rng(12);
  const Graph lattice = watts_strogatz(256, 4, 0.0, rng);
  const Graph small_world = watts_strogatz(256, 4, 0.3, rng);
  ASSERT_TRUE(is_connected(lattice));
  if (is_connected(small_world)) {
    EXPECT_LT(*exact_diameter(small_world), *exact_diameter(lattice));
  }
}

TEST(BarabasiAlbert, StructureAndConnectivity) {
  auto rng = test_rng(13);
  const Graph g = barabasi_albert(500, 3, rng);
  EXPECT_EQ(g.num_vertices(), 500u);
  // Seed star has 3 edges; each of the 496 later vertices adds 3.
  EXPECT_EQ(g.num_edges(), 3u + 496u * 3u);
  EXPECT_TRUE(is_connected(g));
  EXPECT_GE(g.min_degree(), 1u);
}

TEST(BarabasiAlbert, HubsEmerge) {
  auto rng = test_rng(14);
  const Graph g = barabasi_albert(800, 2, rng);
  // Preferential attachment produces a max degree far above the mean (~4).
  EXPECT_GT(g.max_degree(), 20u);
}

TEST(RandomGenerators, DeterministicGivenStream) {
  auto rng1 = test_rng(15);
  auto rng2 = test_rng(15);
  const Graph a = random_regular(60, 3, rng1);
  const Graph b = random_regular(60, 3, rng2);
  EXPECT_EQ(a.edges(), b.edges());
}

}  // namespace
}  // namespace cobra::graph
