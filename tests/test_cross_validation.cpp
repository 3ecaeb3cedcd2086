// Cross-validation between independent implementations of the same law:
//   * CobraProcess with b = 1 IS a simple random walk — its cover time must
//     match the dedicated single-particle walker distributionally;
//   * the exact BIPS subset-DP supports every ProcessOptions, so lazy and
//     1+rho variants of the simulators are pinned to closed numbers too;
//   * the duality holds per-omega for every options combination (spot
//     checks beyond the dedicated duality suite).
#include <gtest/gtest.h>

#include <cmath>

#include "baselines/random_walk.hpp"
#include "core/bips.hpp"
#include "core/bips_exact.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "rng/stream.hpp"
#include "sim/stats.hpp"

namespace cobra::core {
namespace {

TEST(CrossValidation, CobraB1MatchesRandomWalkCoverLaw) {
  for (const graph::Graph& g : {graph::petersen(), graph::cycle(16)}) {
    constexpr int kReps = 400;
    std::vector<double> via_cobra, via_walk;
    ProcessOptions b1;
    b1.branching = Branching::integer(1);
    for (int rep = 0; rep < kReps; ++rep) {
      {
        auto rng = rng::make_stream(881, static_cast<std::uint64_t>(rep));
        CobraProcess p(g, b1);
        p.reset(graph::VertexId{0});
        via_cobra.push_back(
            static_cast<double>(*p.run_until_cover(rng, 1u << 24)));
      }
      {
        auto rng = rng::make_stream(882, static_cast<std::uint64_t>(rep));
        via_walk.push_back(static_cast<double>(
            baselines::random_walk_cover(g, 0, rng, 1u << 24).steps));
      }
    }
    const double se = std::sqrt(sim::variance(via_cobra) / kReps +
                                sim::variance(via_walk) / kReps);
    EXPECT_LT(std::fabs(sim::mean(via_cobra) - sim::mean(via_walk)), 5 * se)
        << g.name();
  }
}

TEST(CrossValidation, LazyBipsMatchesExactDp) {
  const graph::Graph g = graph::cycle(6);  // bipartite: laziness matters
  ProcessOptions opt;
  opt.laziness = 0.5;
  const std::uint64_t T = 6;
  const double exact = bips_exact_infection_cdf(g, 0, T, opt);

  constexpr int kReps = 4000;
  int full = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto rng = rng::make_stream(883, static_cast<std::uint64_t>(rep));
    BipsProcess p(g, 0, BipsOptions{opt});
    for (std::uint64_t t = 0; t < T; ++t) p.step(rng);
    if (p.fully_infected()) ++full;
  }
  const auto ci =
      sim::wilson_interval(static_cast<std::uint64_t>(full), kReps, 3.5);
  EXPECT_TRUE(ci.contains(exact))
      << "exact " << exact << " ci [" << ci.low << ", " << ci.high << "]";
}

TEST(CrossValidation, RhoBipsMatchesExactDp) {
  const graph::Graph g = graph::petersen();
  ProcessOptions opt;
  opt.branching = Branching::one_plus_rho(0.5);
  const std::uint64_t T = 4;
  const double exact = bips_exact_infection_cdf(g, 0, T, opt);

  constexpr int kReps = 4000;
  int full = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto rng = rng::make_stream(884, static_cast<std::uint64_t>(rep));
    BipsProcess p(g, 0, BipsOptions{opt});
    for (std::uint64_t t = 0; t < T; ++t) p.step(rng);
    if (p.fully_infected()) ++full;
  }
  const auto ci =
      sim::wilson_interval(static_cast<std::uint64_t>(full), kReps, 3.5);
  EXPECT_TRUE(ci.contains(exact))
      << "exact " << exact << " ci [" << ci.low << ", " << ci.high << "]";
}

TEST(CrossValidation, ExactExpectationMatchesB1RandomWalkStructure) {
  // For b = 1 the BIPS expected infection time on P_2 is 1 (vertex 1 always
  // picks its only neighbour 0): degenerate but exercised through the
  // b = 1 + rho = 1 + 0 path.
  const graph::Graph g = graph::path(2);
  ProcessOptions b1;
  b1.branching = Branching::one_plus_rho(0.0);
  EXPECT_DOUBLE_EQ(bips_exact_expected_infection_time(g, 0, b1), 1.0);
}

TEST(CrossValidation, CobraHitSurvivalMatchesExactDpWithRho) {
  // Duality + exact DP for the Section 6 branching model.
  const graph::Graph g = graph::cycle(8);
  ProcessOptions opt;
  opt.branching = Branching::one_plus_rho(0.5);
  const std::vector<graph::VertexId> c_set = {4};
  const std::uint64_t T = 5;
  const double exact = bips_exact_miss_probability(g, 0, c_set, T, opt);

  constexpr int kReps = 4000;
  int misses = 0;
  for (int rep = 0; rep < kReps; ++rep) {
    auto rng = rng::make_stream(885, static_cast<std::uint64_t>(rep));
    CobraProcess p(g, opt);
    p.reset(std::span<const graph::VertexId>(c_set.data(), c_set.size()));
    if (!p.run_until_hit(rng, 0, T).has_value()) ++misses;
  }
  const auto ci =
      sim::wilson_interval(static_cast<std::uint64_t>(misses), kReps, 3.5);
  EXPECT_TRUE(ci.contains(exact))
      << "exact " << exact << " ci [" << ci.low << ", " << ci.high << "]";
}

}  // namespace
}  // namespace cobra::core
