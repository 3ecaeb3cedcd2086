// Warm lane-parallel rounds allocate nothing: the frontier kernel sizes its
// lane contexts, scratch bitsets, emission vectors and commit sums once,
// computes lane ranges arithmetically, and forks onto the calling thread's
// persistent util::ForkJoinTeam, which publishes a job without touching
// the heap. This suite replaces the global operator new with a counting
// one (hence its own executable) and replays a trajectory it has already
// run once, so every vector is already at the capacity the replay needs.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "rng/stream.hpp"
#include "util/env.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable allocation form funnels into counted_alloc; the array
// and nothrow forms of the standard library call these.
void* operator new(std::size_t size) { return counted_alloc(size, 1); }
void* operator new[](std::size_t size) { return counted_alloc(size, 1); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace cobra::core {
namespace {

constexpr int kLaneCounts[] = {2, 4};
constexpr int kRounds = 24;

class KernelZeroAlloc : public ::testing::Test {
 protected:
  // Telemetry off whatever the environment says: the rounds-mode
  // trajectory grows per round by design.
  void SetUp() override { util::set_metrics_override("off"); }
  void TearDown() override { util::clear_env_overrides(); }
};

/// Runs `rounds` steps of `process` from `reset` on stream (seed, 0)
/// twice — a warm-up pass, then a replay of the identical trajectory — and
/// returns the heap allocations the replay made.
template <typename Process, typename Reset>
std::uint64_t replay_allocations(Process& process, Reset&& reset,
                                 std::uint64_t seed, int rounds) {
  for (int pass = 0; pass < 2; ++pass) {
    reset();
    rng::Rng rng = rng::make_stream(seed, 0);
    const std::uint64_t before = g_allocations.load();
    for (int r = 0; r < rounds; ++r) process.step(rng);
    if (pass == 1) return g_allocations.load() - before;
  }
  return 0;
}

TEST_F(KernelZeroAlloc, CobraDenseStepIncludingTheParallelCommit) {
  // 2^16 vertices = 1024 bitset words: the commit merge fans out too.
  const graph::Graph g = graph::hypercube(16);
  for (const int lanes : kLaneCounts) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    ProcessOptions opt;
    opt.engine = Engine::kDense;
    opt.kernel_threads = lanes;
    CobraProcess p(g, opt);
    const std::uint64_t allocs = replay_allocations(
        p, [&] { p.reset(graph::VertexId{0}); }, 11, kRounds);
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(p.num_active(), 1u);
  }
}

TEST_F(KernelZeroAlloc, BipsSparsePlainVertexScan) {
  const graph::Graph g = graph::hypercube(10);
  for (const int lanes : kLaneCounts) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    BipsOptions opt;
    opt.process.engine = Engine::kSparse;
    opt.process.kernel_threads = lanes;
    BipsProcess p(g, 0, opt);
    const std::uint64_t allocs =
        replay_allocations(p, [&] { p.reset(0); }, 12, kRounds);
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(p.infected_count(), 1u);
  }
}

TEST_F(KernelZeroAlloc, BipsDenseMarkingAndSampling) {
  const graph::Graph g = graph::hypercube(10);
  for (const int lanes : kLaneCounts) {
    SCOPED_TRACE(::testing::Message() << "lanes=" << lanes);
    BipsOptions opt;
    opt.process.engine = Engine::kDense;
    opt.process.kernel_threads = lanes;
    BipsProcess p(g, 0, opt);
    const std::uint64_t allocs =
        replay_allocations(p, [&] { p.reset(0); }, 13, kRounds);
    EXPECT_EQ(allocs, 0u);
    EXPECT_GT(p.infected_count(), 1u);
  }
}

}  // namespace
}  // namespace cobra::core
