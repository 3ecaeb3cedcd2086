// COBRA stepping-engine A/B harness: every benchmark runs with an explicit
// (graph family, engine) pair so sparse vs dense vs auto can be compared
// like for like — all three are bit-for-bit identical in results
// (tests/test_cobra_engines.cpp), so the ratios are pure cost. Three views
// of the hot path:
//
//   BM_CobraStep          — steady-state round cost after the frontier has
//                           saturated (the scale >= 1 bottleneck ROADMAP
//                           flags; items = active vertices processed);
//   BM_CobraStepAtDensity — one round from a controlled frontier density
//                           (per mille of n), isolating the sparse<->dense
//                           crossover on the largest random-regular graph;
//   BM_CobraStepLanes     — a dense round at 1/2/4 lanes on random
//                           8-regular graphs of 2^9 to 2^16 vertices:
//                           where lanes start to pay, i.e. the frontier
//                           kernel's per-lane scan floor;
//   BM_CobraFullCover     — end-to-end cover runs (what experiments pay).
//
// The committed baseline bench_results/BENCH_step.json is produced by this
// binary (see README.md "Performance" for the regeneration command) and
// guarded by scripts/check_step_bench.py: the dense engine must stay >= 2x
// the sparse engine on the largest b = 2 random-regular steady state.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <map>
#include <vector>

#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"

namespace {

using namespace cobra;
using namespace cobra::core;

constexpr int kNumGraphs = 6;

// Families x densities: dense frontiers (complete), structured expanders
// (hypercube), low-conductance grids (torus), path-like frontiers (cycle),
// and the paper's b = 2 random-regular workhorse at two scales. Index 5 is
// "the largest micro_cobra scale" the acceptance criterion refers to.
graph::Graph build_graph(int id) {
  rng::Rng rng = rng::make_stream(31337, static_cast<std::uint64_t>(id));
  switch (id) {
    case 0: return graph::complete(1024);
    case 1: return graph::hypercube(12);
    case 2: return graph::torus_power(64, 2);
    case 3: return graph::cycle(4096);
    case 4: return graph::connected_random_regular(16384, 8, rng);
    default: return graph::connected_random_regular(262144, 8, rng);
  }
}

const char* graph_name(int id) {
  switch (id) {
    case 0: return "complete_1024";
    case 1: return "hypercube_4096";
    case 2: return "torus_64x64";
    case 3: return "cycle_4096";
    case 4: return "regular_16384_r8";
    default: return "regular_262144_r8";
  }
}

// Benchmarks of the same graph share one instance (the 262144-vertex
// regular graph takes longer to generate than to benchmark).
const graph::Graph& bench_graph(int id) {
  static std::map<int, graph::Graph>& cache = *new std::map<int, graph::Graph>;
  auto it = cache.find(id);
  if (it == cache.end()) it = cache.emplace(id, build_graph(id)).first;
  return it->second;
}

constexpr Engine kEngines[] = {Engine::kSparse, Engine::kDense,
                               Engine::kAuto};
constexpr int kNumEngines = 3;

std::string bench_label(int graph_id, int engine_id) {
  return std::string(graph_name(graph_id)) + "/" +
         engine_name(kEngines[engine_id]);
}

ProcessOptions engine_options(int engine_id) {
  ProcessOptions opt;
  opt.engine = kEngines[engine_id];
  return opt;
}

void BM_CobraStep(benchmark::State& state) {
  // Cost of one round once the active set has saturated (|C_t| ~ n(1-1/e^2)
  // on regular graphs) — the dominant cost of large-scale sweeps.
  const int graph_id = static_cast<int>(state.range(0));
  const int engine_id = static_cast<int>(state.range(1));
  const graph::Graph& g = bench_graph(graph_id);
  state.SetLabel(bench_label(graph_id, engine_id));
  CobraProcess p(g, engine_options(engine_id));
  rng::Rng rng = rng::make_stream(2, 0);
  p.reset(graph::VertexId{0});
  p.run_until_cover(rng, 100'000'000);  // saturate the active set
  std::uint64_t pushes = 0;
  for (auto _ : state) {
    pushes += p.num_active();
    p.step(rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pushes));
  state.counters["frontier_density"] =
      static_cast<double>(p.num_active()) /
      static_cast<double>(g.num_vertices());
}
BENCHMARK(BM_CobraStep)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumGraphs - 1, 1),
                   benchmark::CreateDenseRange(0, kNumEngines - 1, 1)})
    ->Unit(benchmark::kMicrosecond);

void BM_CobraStepThreads(benchmark::State& state) {
  // Lane-scaling view of the saturated dense round on the largest graph:
  // results are bit-identical at every lane count
  // (tests/test_kernel_parallel.cpp), so the ratios are pure cost. The
  // threads_1 entry doubles as the single-thread-overhead guard — the
  // lane machinery at kernel_threads = 1 must stay within 2% of the
  // plain BM_CobraStep dense path (scripts/check_step_bench.py --suite
  // step_threads). Scaling entries are only meaningful when the
  // generating machine has at least that many CPUs; the check reads
  // context.num_cpus and skips the speedup assertion otherwise. Wall
  // time, not main-thread CPU time, sets the iteration count and
  // items_per_second: the lanes run on other threads too.
  const int threads = static_cast<int>(state.range(0));
  const graph::Graph& g = bench_graph(5);
  state.SetLabel(std::string(graph_name(5)) + "/dense/threads_" +
                 std::to_string(threads));
  ProcessOptions opt;
  opt.engine = Engine::kDense;
  opt.kernel_threads = threads;
  CobraProcess p(g, opt);
  rng::Rng rng = rng::make_stream(2, 0);
  p.reset(graph::VertexId{0});
  p.run_until_cover(rng, 100'000'000);  // saturate the active set
  std::uint64_t pushes = 0;
  for (auto _ : state) {
    pushes += p.num_active();
    p.step(rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pushes));
}
BENCHMARK(BM_CobraStepThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CobraStepLanes(benchmark::State& state) {
  // The lane-count calibration sweep: one dense round of a random
  // 8-regular graph on 2^range(0) vertices at range(1) lanes, from a
  // saturated frontier (range(2) = 0: ~55 active vertices per bitset
  // word, the most work a scan word carries) or from a sparse one seeded
  // at range(2) per mille of n, which one untimed round doubles (16 lands
  // near the auto switch's dense-entry density 1/32, ~2 active vertices
  // per word: the least work a dense round's word carries). Where lanes
  // start to pay at both densities sets the frontier kernel's per-lane
  // scan floor (core::kScanLaneMinEntries, in adjacency entries: 512 per
  // word here); with the floor in place, passes narrower than two floors
  // run like lanes_1. Timed in wall time, like BM_CobraStepThreads.
  const int log_n = static_cast<int>(state.range(0));
  const int lanes = static_cast<int>(state.range(1));
  const auto per_mille = static_cast<std::uint32_t>(state.range(2));
  static std::map<int, graph::Graph>& cache =
      *new std::map<int, graph::Graph>;
  auto it = cache.find(log_n);
  if (it == cache.end()) {
    rng::Rng grng = rng::make_stream(4242, static_cast<std::uint64_t>(log_n));
    it = cache
             .emplace(log_n, graph::connected_random_regular(
                                 graph::VertexId{1} << log_n, 8, grng))
             .first;
  }
  const graph::Graph& g = it->second;
  state.SetLabel("regular_" + std::to_string(g.num_vertices()) +
                 "_r8/dense/lanes_" + std::to_string(lanes) +
                 (per_mille == 0 ? std::string("/saturated")
                                 : "/density_" + std::to_string(per_mille) +
                                       "permille"));
  ProcessOptions opt;
  opt.engine = Engine::kDense;
  opt.kernel_threads = lanes;
  CobraProcess p(g, opt);
  rng::Rng rng = rng::make_stream(2, 0);
  std::vector<graph::VertexId> starts;
  if (per_mille != 0)
    for (std::uint32_t i = 0; i < g.num_vertices(); i += 1000 / per_mille)
      starts.push_back(i);
  p.reset(graph::VertexId{0});
  if (per_mille == 0) p.run_until_cover(rng, 100'000'000);  // saturate
  std::uint64_t pushes = 0;
  for (auto _ : state) {
    if (per_mille != 0) {
      state.PauseTiming();
      p.reset(std::span<const graph::VertexId>(starts.data(), starts.size()));
      p.step(rng);  // leave the start vector for the bitset
      state.ResumeTiming();
    }
    pushes += p.num_active();
    p.step(rng);
  }
  benchmark::DoNotOptimize(p.num_active());
  state.SetItemsProcessed(static_cast<std::int64_t>(pushes));
  state.counters["words"] =
      static_cast<double>((g.num_vertices() + 63) / 64);
}
BENCHMARK(BM_CobraStepLanes)
    ->ArgsProduct({benchmark::CreateDenseRange(9, 16, 1), {1, 2, 4}, {0, 16}})
    ->UseRealTime()
    ->Unit(benchmark::kMicrosecond);

void BM_CobraStepAtDensity(benchmark::State& state) {
  // One round from a frontier of fixed density (range(2) is per mille of
  // n), on the largest random-regular graph: the sparse<->dense crossover.
  const int engine_id = static_cast<int>(state.range(1));
  const graph::Graph& g = bench_graph(static_cast<int>(state.range(0)));
  const auto per_mille = static_cast<std::uint32_t>(state.range(2));
  state.SetLabel(bench_label(static_cast<int>(state.range(0)), engine_id) +
                 "/density_" + std::to_string(per_mille) + "permille");
  const auto k = std::max<std::uint32_t>(
      1, static_cast<std::uint32_t>(
             (static_cast<std::uint64_t>(g.num_vertices()) * per_mille) /
             1000));
  // A fixed, evenly spread start set: density is what matters, not which
  // vertices carry it.
  std::vector<graph::VertexId> starts;
  starts.reserve(k);
  for (std::uint32_t i = 0; i < k; ++i)
    starts.push_back(static_cast<graph::VertexId>(
        (static_cast<std::uint64_t>(i) * g.num_vertices()) / k));
  CobraProcess p(g, engine_options(engine_id));
  rng::Rng rng = rng::make_stream(3, 0);
  std::uint64_t pushes = 0;
  for (auto _ : state) {
    state.PauseTiming();
    p.reset(std::span<const graph::VertexId>(starts.data(), starts.size()));
    // One untimed round so the dense engine measures its steady
    // representation (the bitset word scan), not the one-off
    // vector-to-bitset transition; every engine pays the same frontier
    // drift (~2x the seeded density at low densities).
    p.step(rng);
    state.ResumeTiming();
    pushes += p.num_active();
    p.step(rng);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(pushes));
}
BENCHMARK(BM_CobraStepAtDensity)
    ->ArgsProduct({{5},
                   benchmark::CreateDenseRange(0, kNumEngines - 1, 1),
                   {1, 10, 100, 500}})
    ->Unit(benchmark::kMicrosecond);

void BM_CobraFullCover(benchmark::State& state) {
  const int graph_id = static_cast<int>(state.range(0));
  const int engine_id = static_cast<int>(state.range(1));
  const graph::Graph& g = bench_graph(graph_id);
  state.SetLabel(bench_label(graph_id, engine_id));
  CobraProcess p(g, engine_options(engine_id));
  std::uint64_t replicate = 0;
  std::uint64_t total_rounds = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(1, replicate++);
    p.reset(graph::VertexId{0});
    const auto cover = p.run_until_cover(rng, 100'000'000);
    total_rounds += cover.value();
    benchmark::DoNotOptimize(cover);
  }
  state.counters["rounds/run"] = static_cast<double>(total_rounds) /
                                 static_cast<double>(state.iterations());
}
BENCHMARK(BM_CobraFullCover)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumGraphs - 1, 1),
                   {0, 2}})  // sparse vs auto: the A/B experiments see
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
