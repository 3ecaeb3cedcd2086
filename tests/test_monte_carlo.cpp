#include "sim/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

#include "util/env.hpp"

namespace cobra::sim {
namespace {

TEST(MonteCarlo, EveryReplicateRunsExactlyOnce) {
  constexpr std::uint64_t kCount = 500;
  std::vector<std::atomic<int>> hits(kCount);
  parallel_replicates(kCount, 1, [&](std::uint64_t i, rng::Rng&) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::uint64_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(MonteCarlo, ResultsIndependentOfExecutionOrder) {
  // The per-replicate streams are keyed by (seed, replicate): two runs of
  // the same experiment must agree bitwise even though thread interleaving
  // differs.
  auto body = [](std::uint64_t, rng::Rng& rng) {
    double acc = 0.0;
    for (int i = 0; i < 100; ++i) acc += rng.uniform01();
    return acc;
  };
  const auto a = run_replicates(200, 7, body);
  const auto b = run_replicates(200, 7, body);
  EXPECT_EQ(a, b);
}

TEST(MonteCarlo, SeedSelectsDifferentStreams) {
  auto body = [](std::uint64_t, rng::Rng& rng) { return rng.uniform01(); };
  const auto a = run_replicates(50, 1, body);
  const auto b = run_replicates(50, 2, body);
  EXPECT_NE(a, b);
}

TEST(MonteCarlo, ReplicatesGetDistinctStreams) {
  const auto values = run_replicates(
      1000, 3, [](std::uint64_t, rng::Rng& rng) { return rng.uniform01(); });
  std::set<double> unique(values.begin(), values.end());
  EXPECT_GT(unique.size(), 990u);  // collisions would signal stream reuse
}

TEST(MonteCarlo, ZeroReplicatesIsNoop) {
  EXPECT_NO_THROW(parallel_replicates(0, 1, [](std::uint64_t, rng::Rng&) {
    FAIL() << "must not run";
  }));
}

TEST(MonteCarlo, ZeroReplicatesStillRunTheLead) {
  int lead_calls = 0;
  parallel_replicates(
      0, 1, [](std::uint64_t, rng::Rng&) { FAIL() << "must not run"; },
      [&] { ++lead_calls; });
  EXPECT_EQ(lead_calls, 1);
}

double sum_of_draws(rng::Rng& rng) {
  double acc = 0.0;
  for (int k = 0; k < 2000; ++k) acc += rng.uniform01();
  return acc;
}

TEST(MonteCarlo, LeadRunsOnceOnTheCallerWithAThreadCapOfOne) {
  const std::thread::id caller = std::this_thread::get_id();
  for (const int threads : {1, 2, 4}) {
    util::set_threads_override(threads);
    int lead_calls = 0;
    int lead_cap = 0;
    bool on_caller = false;
    parallel_replicates(
        64, 9, [](std::uint64_t, rng::Rng& rng) { sum_of_draws(rng); },
        [&] {
          ++lead_calls;
          lead_cap = util::max_threads();
          on_caller = std::this_thread::get_id() == caller;
        });
    EXPECT_EQ(lead_calls, 1) << threads << " threads";
    EXPECT_EQ(lead_cap, 1) << threads << " threads";
    EXPECT_TRUE(on_caller) << threads << " threads";
    EXPECT_EQ(util::max_threads(), threads) << "restored";
  }
  util::clear_env_overrides();
}

TEST(MonteCarlo, ResultsAreEqualWithAndWithoutALead) {
  // The lead itself fans out the same replicates: under its thread cap of
  // 1 they run serially on the caller, beside the team's.
  for (const int threads : {1, 2, 4}) {
    util::set_threads_override(threads);
    std::vector<double> plain(200), led(200), in_lead(200);
    parallel_replicates(200, 21, [&](std::uint64_t i, rng::Rng& rng) {
      plain[i] = sum_of_draws(rng);
    });
    parallel_replicates(
        200, 21,
        [&](std::uint64_t i, rng::Rng& rng) { led[i] = sum_of_draws(rng); },
        [&] {
          in_lead = run_replicates(200, 21, [](std::uint64_t, rng::Rng& rng) {
            return sum_of_draws(rng);
          });
        });
    EXPECT_EQ(led, plain) << threads << " threads";
    EXPECT_EQ(in_lead, plain) << threads << " threads";
  }
  util::clear_env_overrides();
}

TEST(MonteCarlo, WorkerCountPositive) {
  EXPECT_GE(worker_count(), 1);
}

}  // namespace
}  // namespace cobra::sim
