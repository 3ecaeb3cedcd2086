// util::ForkJoinTeam: every index runs exactly once whoever claims it,
// back-to-back jobs never lose a wake-up, parked workers rejoin, the
// lowest throwing index is rethrown only after every index finished, and
// teams shut down cleanly from any state.
#include "util/fork_join_team.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace cobra::util {
namespace {

/// Sleeps long enough for every worker to exhaust its spin budget and park
/// (kSpinPauses pauses take well under a millisecond).
void let_workers_park() {
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
}

TEST(ForkJoinTeam, ReportsItsWorkersAndRunsEveryIndex) {
  ForkJoinTeam team(3);
  EXPECT_EQ(team.workers(), 3u);
  std::vector<int> out(2, 0);
  team.run(2, [&](std::size_t i) { out[i] = i == 0 ? 7 : 11; });
  EXPECT_EQ(out, (std::vector<int>{7, 11}));
}

TEST(ForkJoinTeam, RunCoversAllIndices) {
  ForkJoinTeam team(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  team.run(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ForkJoinTeam, EveryIndexOnceBelowAtAndAboveTheThreadCount) {
  // Two workers plus the caller: three threads.
  ForkJoinTeam team(2);
  for (const std::size_t count : {1u, 2u, 3u, 4u, 7u, 64u}) {
    SCOPED_TRACE(::testing::Message() << "count=" << count);
    std::vector<std::atomic<int>> hits(count);
    team.run(count, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i) EXPECT_EQ(hits[i].load(), 1);
  }
}

TEST(ForkJoinTeam, ZeroCountIsNoop) {
  ForkJoinTeam team(2);
  EXPECT_NO_THROW(team.run(0, [](std::size_t) {
    FAIL() << "must not be called";
  }));
}

TEST(ForkJoinTeam, PropagatesExceptions) {
  ForkJoinTeam team(1);
  EXPECT_THROW(team.run(2,
                        [](std::size_t) -> void {
                          throw std::runtime_error("boom");
                        }),
               std::runtime_error);
  // The team stays usable after a failed job.
  std::atomic<int> calls{0};
  team.run(2, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls.load(), 2);
}

TEST(ForkJoinTeam, ManySmallRunsSum) {
  ForkJoinTeam team(4);
  std::atomic<std::int64_t> total{0};
  for (int i = 1; i <= 100; ++i)
    team.run(3, [&total, i](std::size_t) {
      total.fetch_add(i, std::memory_order_relaxed);
    });
  EXPECT_EQ(total.load(), 3 * 5050);
}

TEST(ForkJoinTeam, WorkerlessTeamRunsOnTheCaller) {
  ForkJoinTeam team(0);
  EXPECT_EQ(team.workers(), 0u);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<int> order;
  team.run(10, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(ForkJoinTeam, BackToBackRunsLoseNoWakeUp) {
  // 100k tiny jobs in a row: a lost wake-up or a stale claim would hang,
  // skip or double-run an index and break the checksum.
  ForkJoinTeam team(3);
  constexpr int kRuns = 100000;
  std::atomic<std::uint64_t> sum{0};
  std::uint64_t expected = 0;
  for (int r = 0; r < kRuns; ++r) {
    const std::size_t count = 2 + static_cast<std::size_t>(r % 4);
    team.run(count, [&, r](std::size_t i) {
      sum.fetch_add(static_cast<std::uint64_t>(r) * 8 + i + 1,
                    std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < count; ++i)
      expected += static_cast<std::uint64_t>(r) * 8 + i + 1;
  }
  EXPECT_EQ(sum.load(), expected);
}

TEST(ForkJoinTeam, RunAfterTheWorkersParked) {
  ForkJoinTeam team(3);
  std::atomic<int> calls{0};
  for (int round = 0; round < 3; ++round) {
    let_workers_park();
    team.run(8, [&](std::size_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      ++calls;
    });
  }
  EXPECT_EQ(calls.load(), 24);
}

/// Carries the index that threw, so the test can tell which one won.
struct IndexError : std::runtime_error {
  explicit IndexError(std::size_t i)
      : std::runtime_error("index " + std::to_string(i)), index(i) {}
  std::size_t index;
};

TEST(ForkJoinTeam, LowestThrowingIndexIsRethrownAfterEveryIndexFinishes) {
  // The caller's first index waits until a worker has started another, so
  // both a caller-run and a worker-run index throw (each thread throws
  // from the first index it runs); every other index sleeps a little and
  // finishes. run() must finish all 32 before rethrowing, and rethrow the
  // lower of the two throwing indices.
  ForkJoinTeam team(2);
  const std::thread::id caller = std::this_thread::get_id();
  constexpr std::size_t kCount = 32;
  std::atomic<bool> worker_started{false};
  std::atomic<bool> caller_threw{false};
  std::atomic<bool> worker_threw{false};
  std::atomic<std::size_t> finished{0};
  std::mutex m;
  std::vector<std::size_t> thrown;
  try {
    team.run(kCount, [&](std::size_t i) {
      const bool on_caller = std::this_thread::get_id() == caller;
      if (on_caller) {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(30);
        while (!worker_started.load() &&
               std::chrono::steady_clock::now() < deadline)
          std::this_thread::yield();
      } else {
        worker_started.store(true);
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      ++finished;
      std::atomic<bool>& mine = on_caller ? caller_threw : worker_threw;
      if (!mine.exchange(true)) {
        {
          std::lock_guard<std::mutex> lock(m);
          thrown.push_back(i);
        }
        throw IndexError(i);
      }
    });
    FAIL() << "run() swallowed the exceptions";
  } catch (const IndexError& e) {
    EXPECT_EQ(finished.load(), kCount);
    ASSERT_TRUE(worker_started.load()) << "no worker ever claimed an index";
    ASSERT_EQ(thrown.size(), 2u);
    EXPECT_EQ(e.index, std::min(thrown[0], thrown[1]));
  }
}

TEST(ForkJoinTeam, DestroysCleanlyWhileParkedOrNeverUsed) {
  { ForkJoinTeam idle(3); }
  {
    ForkJoinTeam team(3);
    team.run(4, [](std::size_t) {});
    let_workers_park();
  }
  {
    ForkJoinTeam team(3);
    team.run(4, [](std::size_t) {});  // destroyed while still spinning
  }
  SUCCEED();
}

TEST(ForkJoinTeam, TwoTeamsDrivenFromTwoThreadsAtOnce) {
  constexpr int kRuns = 20000;
  std::uint64_t sums[2] = {0, 0};
  auto drive = [&](int t) {
    ForkJoinTeam team(2);
    std::atomic<std::uint64_t> sum{0};
    for (int r = 0; r < kRuns; ++r)
      team.run(3, [&](std::size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
      });
    sums[t] = sum.load();
  };
  std::thread a(drive, 0);
  std::thread b(drive, 1);
  a.join();
  b.join();
  EXPECT_EQ(sums[0], 6u * kRuns);
  EXPECT_EQ(sums[1], 6u * kRuns);
}

}  // namespace
}  // namespace cobra::util
