#include "core/estimators.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

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

void expect_same_samples(const TimeSamples& a, const TimeSamples& b) {
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.timeouts, b.timeouts);
}

TEST(Estimators, CoverWithALeadMatchesCoverWithout) {
  const graph::Graph g = graph::cycle(257);
  const auto plain =
      estimate_cobra_cover(g, ProcessOptions{}, 0, 24, 47, 100000);
  int lead_calls = 0;
  const auto led = estimate_cobra_cover(g, ProcessOptions{}, 0, 24, 47,
                                        100000, [&] { ++lead_calls; });
  EXPECT_EQ(lead_calls, 1);
  expect_same_samples(led, plain);
}

// The Theorem 1.2 cell's path: replicates at a provisional cap while the
// solve runs, rerun at the solved cap only if one timed out.
TEST(Estimators, ProvisionalCapRerunEqualsADirectEstimateAtTheFinalCap) {
  const graph::Graph g = graph::cycle(1025);
  constexpr std::uint64_t kFinalCap = 1000000;
  const auto direct =
      estimate_cobra_cover(g, ProcessOptions{}, 0, 24, 48, kFinalCap);
  ASSERT_EQ(direct.timeouts, 0u);
  // A provisional cap at the median cover time: about half the replicates
  // finish under it and the rest time out.
  std::vector<double> sorted = direct.rounds;
  std::sort(sorted.begin(), sorted.end());
  const auto provisional = static_cast<std::uint64_t>(sorted[12]);
  ASSERT_LT(sorted.front(), sorted.back());
  // The provisional run has timeouts and the direct one none, so equal
  // samples show the rerun happened. A provisional cap above every cover
  // time needs no rerun and gives the same samples too.
  for (const std::uint64_t cap :
       {provisional, std::uint64_t{5}, std::uint64_t{100000}}) {
    SCOPED_TRACE(::testing::Message() << "provisional cap " << cap);
    int solves = 0;
    const auto samples = estimate_cobra_cover_during_solve(
        g, ProcessOptions{}, 0, 24, 48, cap, [&] {
          ++solves;
          return kFinalCap;
        });
    EXPECT_EQ(solves, 1);
    expect_same_samples(samples, direct);
  }
}

TEST(Estimators, SolvedCapBelowTheProvisionalOneIsRefused) {
  const graph::Graph g = graph::cycle(64);
  EXPECT_THROW(estimate_cobra_cover_during_solve(
                   g, ProcessOptions{}, 0, 4, 50, 1000,
                   [] { return std::uint64_t{999}; }),
               util::CheckError);
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
