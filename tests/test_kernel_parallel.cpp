// The cross-thread-count equivalence wall for in-round kernel
// parallelism (core/frontier_kernel.hpp): at a fixed seed, every
// observable of every frontier-kernel process is bit-for-bit identical
// at every kernel_threads setting — the lane count partitions work, it
// never partitions randomness. Checked here for COBRA, BIPS and the
// set-protocol baselines across the sparse/dense/auto engines, on
// fixtures that include the degenerate single-vertex graph, a graph
// whose bitset straddles a word boundary (n = 65), a graph ingested
// from a .cgr file — the path production sweeps take — and graphs wide
// enough that lane_count actually forks: a scan spanning fewer than two
// floors of adjacency (kScanLaneMinEntries per lane) runs on one lane
// whatever kernel_threads says, so only those fixtures compare a
// fanned-out round against the serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "baselines/flooding.hpp"
#include "baselines/pull_gossip.hpp"
#include "baselines/push_gossip.hpp"
#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "core/frontier_kernel.hpp"
#include "graph/binary_io.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::core {
namespace {

constexpr int kLaneCounts[] = {2, 3, 8};
constexpr Engine kFastEngines[] = {Engine::kSparse, Engine::kDense,
                                   Engine::kAuto};

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

std::vector<graph::Graph> fixture_graphs() {
  rng::Rng gen = rng::make_stream(7117, 0);
  std::vector<graph::Graph> graphs;
  {
    graph::GraphBuilder b(1);  // the degenerate n = 1 edge case
    graphs.push_back(std::move(b).build());
  }
  // 65 vertices: the frontier bitset spills one bit into a second word,
  // so every word-range partition has a ragged tail to get right.
  graphs.push_back(graph::cycle(65));
  graphs.push_back(graph::hypercube(7));
  graphs.push_back(graph::connected_random_regular(192, 6, gen));
  // Above the floors: 257 words (a one-bit tail) of 16449 degree-8
  // vertices span 4 floors, so word and vertex scans fork 2, 3 and 4
  // ragged lanes at caps 2, 3 and 8.
  graphs.push_back(graph::connected_random_regular(16449, 8, gen));
  return graphs;
}

std::vector<graph::VertexId> sorted_active(const CobraProcess& p) {
  std::vector<graph::VertexId> v = p.active();
  std::sort(v.begin(), v.end());
  return v;
}

/// Lockstep bit-for-bit comparison of a serial process against a
/// lane-parallel one: every observable must agree every round.
void expect_cobra_lockstep(CobraProcess& serial, CobraProcess& lanes,
                           std::uint64_t seed, int max_rounds) {
  rng::Rng rng_a = rng::make_stream(seed, 0);
  rng::Rng rng_b = rng::make_stream(seed, 0);
  serial.reset(graph::VertexId{0});
  lanes.reset(graph::VertexId{0});
  for (int t = 0; t < max_rounds && !serial.all_visited(); ++t) {
    ASSERT_EQ(serial.step(rng_a), lanes.step(rng_b)) << "round " << t;
    ASSERT_EQ(serial.num_active(), lanes.num_active()) << "round " << t;
    ASSERT_EQ(serial.num_visited(), lanes.num_visited()) << "round " << t;
    ASSERT_EQ(serial.transmissions(), lanes.transmissions())
        << "round " << t;
    ASSERT_EQ(sorted_active(serial), sorted_active(lanes)) << "round " << t;
    for (graph::VertexId u = 0; u < serial.graph().num_vertices(); ++u) {
      ASSERT_EQ(serial.is_visited(u), lanes.is_visited(u)) << "round " << t;
      ASSERT_EQ(serial.is_active(u), lanes.is_active(u)) << "round " << t;
    }
  }
  EXPECT_EQ(serial.round(), lanes.round());
  EXPECT_EQ(serial.all_visited(), lanes.all_visited());
}

void expect_cobra_thread_invariant(const graph::Graph& g,
                                   ProcessOptions base,
                                   std::uint64_t seed) {
  ProcessOptions serial_opt = base;
  serial_opt.kernel_threads = 1;
  for (const int threads : kLaneCounts) {
    ProcessOptions lane_opt = base;
    lane_opt.kernel_threads = threads;
    CobraProcess serial(g, serial_opt);
    CobraProcess lanes(g, lane_opt);
    ASSERT_EQ(lanes.kernel_threads(), threads);
    expect_cobra_lockstep(serial, lanes, seed, 5000);
  }
}

TEST(KernelParallel, CobraBitForBitAcrossThreadCountsOnEveryEngine) {
  for (const graph::Graph& g : fixture_graphs()) {
    for (const Engine engine : kFastEngines) {
      ProcessOptions opt;
      opt.engine = engine;
      expect_cobra_thread_invariant(g, opt, 9100 + g.num_vertices());
    }
  }
}

TEST(KernelParallel, CobraThreadInvariantWithLazinessAndBranching) {
  const graph::Graph g = graph::hypercube(13);  // 3 floors: 2-3 lanes
  ProcessOptions opt;
  opt.engine = Engine::kDense;
  opt.laziness = 0.5;
  opt.branching = Branching::one_plus_rho(0.3);
  expect_cobra_thread_invariant(g, opt, 4711);
}

TEST(KernelParallel, CobraThreadInvariantOnIngestedGraph) {
  // The production path: a generated graph round-tripped through the
  // .cgr container and reloaded through the file: spec (mmap backend).
  const TempFile f("test_kernel_parallel_ingest.cgr");
  graph::write_cgr_file(graph::build_graph_spec("regular_8192_r8"), f.path);
  const graph::Graph g = graph::build_graph_spec("file:" + f.path);
  for (const Engine engine : kFastEngines) {
    ProcessOptions opt;
    opt.engine = engine;
    expect_cobra_thread_invariant(g, opt, 31337);
  }
}

/// True iff `v` is strictly ascending (BIPS reports A_t in vertex order
/// on every engine).
bool strictly_ascending(const std::vector<graph::VertexId>& v) {
  return std::adjacent_find(v.begin(), v.end(),
                            std::greater_equal<graph::VertexId>()) == v.end();
}

void expect_bips_lockstep(BipsProcess& serial, BipsProcess& lanes,
                          std::uint64_t seed, int max_rounds) {
  rng::Rng rng_a = rng::make_stream(seed, 0);
  rng::Rng rng_b = rng::make_stream(seed, 0);
  serial.reset(graph::VertexId{0});
  lanes.reset(graph::VertexId{0});
  for (int t = 0; t < max_rounds && !serial.fully_infected(); ++t) {
    ASSERT_EQ(serial.step(rng_a), lanes.step(rng_b)) << "round " << t;
    ASSERT_TRUE(strictly_ascending(serial.infected())) << "round " << t;
    ASSERT_EQ(serial.infected(), lanes.infected()) << "round " << t;
    ASSERT_EQ(serial.dense_rounds(), lanes.dense_rounds()) << "round " << t;
    for (graph::VertexId u = 0; u < serial.graph().num_vertices(); ++u)
      ASSERT_EQ(serial.is_infected(u), lanes.is_infected(u))
          << "round " << t;
  }
  EXPECT_EQ(serial.round(), lanes.round());
  EXPECT_EQ(serial.fully_infected(), lanes.fully_infected());
}

TEST(KernelParallel, BipsBitForBitAcrossThreadCountsOnEveryEngine) {
  for (const graph::Graph& g : fixture_graphs()) {
    if (g.num_vertices() < 2) continue;  // BIPS needs min degree >= 1
    for (const Engine engine : kFastEngines) {
      for (const int threads : kLaneCounts) {
        BipsOptions serial_opt;
        serial_opt.process.engine = engine;
        serial_opt.process.kernel_threads = 1;
        BipsOptions lane_opt = serial_opt;
        lane_opt.process.kernel_threads = threads;
        BipsProcess serial(g, 0, serial_opt);
        BipsProcess lanes(g, 0, lane_opt);
        expect_bips_lockstep(serial, lanes, 5500 + g.num_vertices(), 5000);
      }
    }
  }
}

TEST(KernelParallel, BipsThreadInvariantWithLaziness) {
  // Laziness exercises the dense boundary-marking round's "self already
  // infected" determination, which runs through the marked local scan.
  const graph::Graph g = graph::hypercube(13);  // 3 floors: 2-3 lanes
  for (const int threads : kLaneCounts) {
    BipsOptions serial_opt;
    serial_opt.process.engine = Engine::kDense;
    serial_opt.process.laziness = 0.5;
    serial_opt.process.kernel_threads = 1;
    BipsOptions lane_opt = serial_opt;
    lane_opt.process.kernel_threads = threads;
    BipsProcess serial(g, 0, serial_opt);
    BipsProcess lanes(g, 0, lane_opt);
    expect_bips_lockstep(serial, lanes, 616, 5000);
  }
}

TEST(KernelParallel, BipsBothRoundKindsForkOnWideGraphs) {
  // Graphs on which both BIPS round kinds fork at caps 2-4: the full
  // sampling scan spans 4 scan floors of the 16449-vertex 8-regular
  // fixture and 32 of complete(1024), where the auto score picks the full
  // scan for all but the first rounds. The auto runs must use both kinds,
  // so both algorithms are compared against their serial runs.
  const graph::Graph graphs[] = {fixture_graphs().back(),
                                 graph::complete(1024)};
  for (const graph::Graph& g : graphs) {
    SCOPED_TRACE(::testing::Message() << "n=" << g.num_vertices());
    for (const Engine engine : kFastEngines) {
      for (const int threads : {2, 3, 4}) {
        BipsOptions serial_opt;
        serial_opt.process.engine = engine;
        serial_opt.process.kernel_threads = 1;
        BipsOptions lane_opt = serial_opt;
        lane_opt.process.kernel_threads = threads;
        BipsProcess serial(g, 0, serial_opt);
        BipsProcess lanes(g, 0, lane_opt);
        expect_bips_lockstep(serial, lanes, 808 + g.num_vertices(), 5000);
        ASSERT_TRUE(lanes.fully_infected());
        const std::uint64_t marking = lanes.dense_rounds();
        const std::uint64_t sampling = lanes.round() - marking;
        switch (engine) {
          case Engine::kSparse: EXPECT_EQ(marking, 0u); break;
          case Engine::kDense: EXPECT_EQ(sampling, 0u); break;
          default:
            EXPECT_GT(marking, 0u);
            EXPECT_GT(sampling, 0u);
        }
      }
    }
  }
}

template <typename Result>
void expect_same_result(const Result& a, const Result& b,
                        const char* what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.transmissions, b.transmissions) << what;
  EXPECT_EQ(a.completed, b.completed) << what;
}

TEST(KernelParallel, FloodingBitForBitAcrossThreadCounts) {
  for (const graph::Graph& g : fixture_graphs()) {
    for (const Engine engine : kFastEngines) {
      baselines::BaselineOptions serial_opt;
      serial_opt.engine = engine;
      serial_opt.kernel_threads = 1;
      const auto serial = baselines::flooding_cover(g, 0, 10000, serial_opt);
      for (const int threads : kLaneCounts) {
        baselines::BaselineOptions lane_opt = serial_opt;
        lane_opt.kernel_threads = threads;
        const auto lanes = baselines::flooding_cover(g, 0, 10000, lane_opt);
        expect_same_result(serial, lanes, g.name().c_str());
      }
    }
  }
}

TEST(KernelParallel, PushGossipBitForBitAcrossThreadCounts) {
  for (const graph::Graph& g : fixture_graphs()) {
    if (g.num_vertices() < 2) continue;  // gossip needs min degree >= 1
    for (const Engine engine : kFastEngines) {
      baselines::BaselineOptions serial_opt;
      serial_opt.engine = engine;
      serial_opt.kernel_threads = 1;
      rng::Rng rng_a = rng::make_stream(8118, g.num_vertices());
      const auto serial =
          baselines::push_gossip_cover(g, 0, rng_a, 100000, serial_opt);
      ASSERT_TRUE(serial.completed) << g.name();
      for (const int threads : kLaneCounts) {
        baselines::BaselineOptions lane_opt = serial_opt;
        lane_opt.kernel_threads = threads;
        rng::Rng rng_b = rng::make_stream(8118, g.num_vertices());
        const auto lanes =
            baselines::push_gossip_cover(g, 0, rng_b, 100000, lane_opt);
        expect_same_result(serial, lanes, g.name().c_str());
      }
    }
  }
}

TEST(KernelParallel, PullAndPushPullGossipBitForBitAcrossThreadCounts) {
  for (const graph::Graph& g : fixture_graphs()) {
    if (g.num_vertices() < 2) continue;
    for (const Engine engine : kFastEngines) {
      baselines::BaselineOptions serial_opt;
      serial_opt.engine = engine;
      serial_opt.kernel_threads = 1;
      rng::Rng pull_a = rng::make_stream(414, g.num_vertices());
      const auto pull_serial =
          baselines::pull_gossip_cover(g, 0, pull_a, 100000, serial_opt);
      rng::Rng pp_a = rng::make_stream(515, g.num_vertices());
      const auto pp_serial = baselines::push_pull_gossip_cover(
          g, 0, pp_a, 100000, serial_opt);
      for (const int threads : kLaneCounts) {
        baselines::BaselineOptions lane_opt = serial_opt;
        lane_opt.kernel_threads = threads;
        rng::Rng pull_b = rng::make_stream(414, g.num_vertices());
        expect_same_result(
            pull_serial,
            baselines::pull_gossip_cover(g, 0, pull_b, 100000, lane_opt),
            g.name().c_str());
        rng::Rng pp_b = rng::make_stream(515, g.num_vertices());
        expect_same_result(pp_serial,
                           baselines::push_pull_gossip_cover(
                               g, 0, pp_b, 100000, lane_opt),
                           g.name().c_str());
      }
    }
  }
}

TEST(KernelParallel, KernelThreadsResolvesFromSession) {
  util::clear_env_overrides();
  EXPECT_EQ(resolve_kernel_threads(0), 1);  // session default is serial
  util::set_kernel_threads_override(4);
  EXPECT_EQ(resolve_kernel_threads(0), 4);
  // An explicit option always wins over the session setting.
  EXPECT_EQ(resolve_kernel_threads(2), 2);
  util::clear_env_overrides();

  // The resolved count reaches the kernel through every process type.
  const graph::Graph g = graph::cycle(8);
  ProcessOptions opt;
  opt.kernel_threads = 3;
  EXPECT_EQ(CobraProcess(g, opt).kernel_threads(), 3);
  util::set_kernel_threads_override(2);
  EXPECT_EQ(CobraProcess(g).kernel_threads(), 2);
  util::clear_env_overrides();
  EXPECT_EQ(CobraProcess(g).kernel_threads(), 1);
}

TEST(KernelParallel, LaneCountSizesEachPassFromItsWidth) {
  // Cache-sized passes of an 8-regular graph stay on one lane at any cap.
  for (const std::size_t words : {8, 16, 32})
    EXPECT_EQ(lane_count(words, 4, Pass::kWordScan, 8), 1u) << words;
  for (const std::size_t n : {512, 1024, 2048})
    EXPECT_EQ(lane_count(n, 4, Pass::kVertexScan, 8), 1u) << n;
  // regular_65536_r8: 1024 words and 65536 vertices fill four lanes.
  EXPECT_EQ(lane_count(1024, 4, Pass::kWordScan, 8), 4u);
  EXPECT_EQ(lane_count(65536, 4, Pass::kVertexScan, 8), 4u);
  EXPECT_EQ(lane_count(1024, 1, Pass::kWordScan, 8), 1u);
  // Width is adjacency, not words: complete_2048's 32 words span 4.2M
  // entries and fork, cycle_512's 8 words span 1024 and do not.
  EXPECT_EQ(lane_count(32, 4, Pass::kWordScan, 2047), 4u);
  EXPECT_EQ(lane_count(2048, 4, Pass::kVertexScan, 2047), 4u);
  EXPECT_EQ(lane_count(8, 4, Pass::kWordScan, 2), 1u);
  EXPECT_EQ(lane_count(1, 4, Pass::kWordScan, 0), 1u);  // n = 1
  // A commit word is cheap whatever the degree: 1024 of them stay
  // serial, 4096 fill 4 lanes.
  EXPECT_EQ(lane_count(1024, 4, Pass::kCommit, 2047), 1u);
  EXPECT_EQ(lane_count(4096, 4, Pass::kCommit, 8), 4u);
  // Nothing to scan, or no lanes, is no lane at all.
  for (const Pass pass : {Pass::kWordScan, Pass::kVertexScan, Pass::kCommit}) {
    EXPECT_EQ(lane_count(0, 4, pass, 8), 0u);
    EXPECT_EQ(lane_count(1024, 0, pass, 8), 0u);
  }
  // The rule itself: within [1, cap], a forked pass gives every lane at
  // least a floor of width, and a pass below the cap has no room for one
  // more lane.
  for (const std::uint64_t degree : {1, 3, 8, 100}) {
    for (const Pass pass :
         {Pass::kWordScan, Pass::kVertexScan, Pass::kCommit}) {
      const std::uint64_t per_item =
          pass == Pass::kCommit ? 1
          : degree * (pass == Pass::kWordScan ? 64 : 1);
      const std::uint64_t floor =
          pass == Pass::kCommit ? kCommitLaneMinWords : kScanLaneMinEntries;
      for (std::size_t items = 1; items * per_item < 20 * floor;
           items += floor / per_item / 8 + 1) {
        for (const int cap : {1, 2, 3, 4, 8}) {
          const std::size_t lanes = lane_count(items, cap, pass, degree);
          const std::uint64_t width = items * per_item;
          ASSERT_GE(lanes, 1u);
          ASSERT_LE(lanes, static_cast<std::size_t>(cap));
          if (lanes > 1) {
            ASSERT_GE(width / lanes, floor) << items;
          }
          if (lanes < static_cast<std::size_t>(cap)) {
            ASSERT_LT(width / (lanes + 1), floor) << items;
          }
        }
      }
    }
  }
}

TEST(KernelParallel, NarrowPassesNeverBuildTheLaneTeam) {
  // A kernel whose passes all stay on one lane never spawns a thread, so a
  // replicate on a cache-sized graph pays no team start-up at any cap.
  const auto threads = [] {
    std::size_t count = 0;
    for ([[maybe_unused]] const auto& entry :
         std::filesystem::directory_iterator("/proc/self/task"))
      ++count;
    return count;
  };
  if (!std::filesystem::exists("/proc/self/task"))
    GTEST_SKIP() << "no /proc/self/task to count threads in";
  const std::size_t before = threads();
  const graph::Graph g = graph::hypercube(10);
  for (const Engine engine : kFastEngines) {
    ProcessOptions opt;
    opt.engine = engine;
    opt.kernel_threads = 4;
    CobraProcess cobra(g, opt);
    rng::Rng rng = rng::make_stream(5, 0);
    cobra.reset(graph::VertexId{0});
    cobra.run_until_cover(rng, 100000);
    EXPECT_EQ(threads(), before);
    BipsOptions bips_opt;
    bips_opt.process = opt;
    BipsProcess bips(g, 0, bips_opt);
    for (int t = 0; t < 200 && !bips.fully_infected(); ++t) bips.step(rng);
    EXPECT_EQ(threads(), before);
  }
}

TEST(KernelParallel, MoreLanesThanWordsOrVerticesIsSafe) {
  // A cap of 8 lanes against passes with room for fewer: 194 words and
  // 12353 vertices of degree 8 fork only 3 ragged lanes, and a 2-vertex
  // path (one word) none; the results still match the serial kernel's.
  rng::Rng gen = rng::make_stream(7118, 0);
  const graph::Graph wide = graph::connected_random_regular(12353, 8, gen);
  ASSERT_EQ(lane_count(194, 8, Pass::kWordScan, 8), 3u);
  ASSERT_EQ(lane_count(wide.num_vertices(), 8, Pass::kVertexScan, 8), 3u);
  const graph::Graph path = graph::path(2);
  for (const graph::Graph* g : {&wide, &path}) {
    for (const Engine engine : kFastEngines) {
      ProcessOptions opt;
      opt.engine = engine;
      expect_cobra_thread_invariant(*g, opt, 77);
    }
  }
}

TEST(KernelParallel, ThrowingLaneIsRethrownAfterEveryLaneJoins) {
  // 4 lanes over Q_14's 16384 vertices (4096 each): lane 0 throws on its
  // first vertex and lane 3 on its ninth, while lanes 1 and 2 are still
  // asleep on theirs. The scan must run lanes 1 and 2 to completion, join
  // everyone, rethrow lane 0's error, and leave the kernel usable.
  const graph::Graph g = graph::hypercube(14);
  const graph::VertexId kLane = g.num_vertices() / 4;
  FrontierKernel::Config cfg;
  cfg.engine = Engine::kDense;
  cfg.kernel_threads = 4;
  FrontierKernel kernel(g, cfg);
  ASSERT_EQ(lane_count(g.num_vertices(), 4, Pass::kVertexScan, 14), 4u);
  const graph::VertexId start[] = {0};
  kernel.assign(start);
  ASSERT_TRUE(kernel.begin_round(1.0));
  std::atomic<int> calls{0};
  try {
    kernel.vertex_scan<Sink::kCoalescing>([&](auto& lane, graph::VertexId u) {
      if (u == kLane || u == 2 * kLane)
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
      ++calls;
      if (u == 0) throw std::runtime_error("lane 0");
      if (u == 3 * kLane + 8) throw std::runtime_error("lane 3");
      lane.emit(u);
    });
    FAIL() << "the scan swallowed its lanes' exceptions";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane 0");
  }
  EXPECT_EQ(calls.load(), 1 + 2 * static_cast<int>(kLane) + 9);

  ASSERT_TRUE(kernel.begin_round(1.0));
  kernel.vertex_scan<Sink::kCoalescing>(
      [](auto& lane, graph::VertexId u) { lane.emit(u); });
  kernel.commit(FrontierKernel::Commit::kReplace);
  EXPECT_EQ(kernel.frontier_size(), 4 * kLane);
}

}  // namespace
}  // namespace cobra::core
