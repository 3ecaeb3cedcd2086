#include "core/estimators.hpp"

#include <gtest/gtest.h>

#include "graph/generators.hpp"
#include "util/assert.hpp"
#include "util/fork_join_team.hpp"

namespace cobra::core {
namespace {

TEST(Estimators, CoverOnTwoPathIsAlwaysOne) {
  const graph::Graph g = graph::path(2);
  const auto samples =
      estimate_cobra_cover(g, ProcessOptions{}, 0, 64, 42, 100);
  EXPECT_EQ(samples.timeouts, 0u);
  ASSERT_EQ(samples.rounds.size(), 64u);
  for (const double r : samples.rounds) EXPECT_DOUBLE_EQ(r, 1.0);
  ASSERT_EQ(samples.transmissions.size(), 64u);
  for (const double tx : samples.transmissions) EXPECT_DOUBLE_EQ(tx, 2.0);
}

TEST(Estimators, TimeoutsAreCounted) {
  const graph::Graph g = graph::cycle(64);
  // 2 rounds cannot cover a 64-cycle: every replicate must time out.
  const auto samples =
      estimate_cobra_cover(g, ProcessOptions{}, 0, 16, 43, 2);
  EXPECT_EQ(samples.timeouts, 16u);
  EXPECT_TRUE(samples.rounds.empty());
}

TEST(Estimators, DeterministicAcrossCalls) {
  const graph::Graph g = graph::petersen();
  const auto a = estimate_cobra_cover(g, ProcessOptions{}, 0, 32, 44, 1000);
  const auto b = estimate_cobra_cover(g, ProcessOptions{}, 0, 32, 44, 1000);
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
}

TEST(Estimators, SeedChangesSamples) {
  const graph::Graph g = graph::petersen();
  const auto a = estimate_cobra_cover(g, ProcessOptions{}, 0, 32, 44, 1000);
  const auto b = estimate_cobra_cover(g, ProcessOptions{}, 0, 32, 45, 1000);
  EXPECT_NE(a.rounds, b.rounds);
}

TEST(Estimators, HitTimesAtMostCoverTimes) {
  const graph::Graph g = graph::cycle(16);
  const auto hit =
      estimate_cobra_hit(g, ProcessOptions{}, 0, 8, 32, 46, 100000);
  const auto cover =
      estimate_cobra_cover(g, ProcessOptions{}, 0, 32, 46, 100000);
  ASSERT_EQ(hit.timeouts, 0u);
  ASSERT_EQ(cover.timeouts, 0u);
  // Same seed => same underlying runs; hitting 8 can only be earlier than
  // covering everything.
  for (std::size_t i = 0; i < hit.rounds.size(); ++i)
    EXPECT_LE(hit.rounds[i], cover.rounds[i]);
}

TEST(Estimators, BipsInfectionCompletes) {
  const graph::Graph g = graph::complete(16);
  const auto samples = estimate_bips_infection(g, BipsOptions{}, 0, 32, 47,
                                               100000);
  EXPECT_EQ(samples.timeouts, 0u);
  for (const double r : samples.rounds) EXPECT_GE(r, 1.0);
}

TEST(Estimators, GrowthCurveStartsAtOneAndReachesN) {
  const graph::Graph g = graph::complete(32);
  const auto curve = average_bips_growth(g, BipsOptions{}, 0, 30, 16, 49);
  ASSERT_EQ(curve.size(), 31u);
  EXPECT_DOUBLE_EQ(curve.front(), 1.0);
  EXPECT_NEAR(curve.back(), 32.0, 1e-9);  // absorbing full state
  // Curve should be (weakly) increasing in expectation for K_n.
  EXPECT_GT(curve[5], curve[0]);
}

TEST(Estimators, RefuseReplicateCountsTheFanOutCannotClaim) {
  // Each count is refused before any per-replicate vector is allocated
  // (2^32 - 1 doubles would be 32 GiB).
  const graph::Graph g = graph::complete(4);
  for (const std::uint64_t reps :
       {std::uint64_t{0}, util::ForkJoinTeam::kCountLimit,
        std::uint64_t{400'000'000'000}}) {
    EXPECT_THROW(estimate_cobra_cover(g, ProcessOptions{}, 0, reps, 1, 10),
                 util::CheckError)
        << reps;
    EXPECT_THROW(
        estimate_cobra_hit(g, ProcessOptions{}, 0, 1, reps, 1, 10),
        util::CheckError)
        << reps;
    EXPECT_THROW(estimate_bips_infection(g, BipsOptions{}, 0, reps, 1, 10),
                 util::CheckError)
        << reps;
    EXPECT_THROW(average_bips_growth(g, BipsOptions{}, 0, 10, reps, 1),
                 util::CheckError)
        << reps;
  }
}

}  // namespace
}  // namespace cobra::core
