// BIPS frontier-kernel A/B harness: every benchmark runs with an explicit
// (graph family, engine) pair so sparse vs dense vs auto can be compared
// like for like — all three are bit-for-bit identical in results
// (tests/test_bips_engines.cpp), so the ratios are pure cost. Three views
// of the hot path:
//
//   BM_BipsRound         — per-round cost along full-infection trajectories
//                          (restarting when absorbed), the mix experiments
//                          actually pay; items = n per round;
//   BM_BipsRoundThreads  — the dense round's lane scaling;
//   BM_BipsFullInfection — end-to-end infec(source) runs;
//   BM_BipsInfectionLanes/<graph>/<L> — whole auto-engine infections at L
//                          lanes on the expander-prebaked graphs; its
//                          round_us counter is the per-round wall time
//                          perfbench reports as kernel.bips.round_us.
//
// The committed baseline bench_results/BENCH_bips.json is produced by this
// binary (see README.md "Performance" for the regeneration command) and
// guarded by scripts/check_step_bench.py --suite bips: the dense engine
// must stay >= 2x the sparse engine on the BM_BipsRound trajectory of
// the largest b = 2 random-regular graph (ctest bench_bips_baseline_check
// + the CI bench job).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>

#include "core/bips.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"

namespace {

using namespace cobra;
using namespace cobra::core;

constexpr int kNumGraphs = 5;
// Beyond the engine sweeps: the dense graph of the expander-prebaked
// workload, used only by BM_BipsInfectionLanes.
constexpr int kComplete2048 = kNumGraphs;

// Index 4 is "the largest random-regular config" the acceptance criterion
// and the baseline check refer to.
graph::Graph build_graph(int id) {
  rng::Rng rng = rng::make_stream(31338, static_cast<std::uint64_t>(id));
  switch (id) {
    case 0: return graph::complete(1024);          // dense
    case 1: return graph::torus_power(64, 2);      // sparse, degree 4
    case 2: return graph::connected_random_regular(4096, 8, rng);
    case 3: return graph::cycle(4096);             // sparse, degree 2
    case kComplete2048: return graph::complete(2048);
    default: return graph::connected_random_regular(65536, 8, rng);
  }
}

const char* graph_name(int id) {
  switch (id) {
    case 0: return "complete_1024";
    case 1: return "torus_64x64";
    case 2: return "regular_4096_r8";
    case 3: return "cycle_4096";
    case kComplete2048: return "complete_2048";
    default: return "regular_65536_r8";
  }
}

// Benchmarks of the same graph share one instance (the 65536-vertex
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

BipsOptions engine_options(int engine_id) {
  BipsOptions opt;
  opt.process.engine = kEngines[engine_id];
  return opt;
}

void BM_BipsRound(benchmark::State& state) {
  // Per-round cost along the trajectory every infec(source) estimate pays:
  // growth phase, saturated tail and one absorbing round per restart.
  const int graph_id = static_cast<int>(state.range(0));
  const int engine_id = static_cast<int>(state.range(1));
  const graph::Graph& g = bench_graph(graph_id);
  state.SetLabel(bench_label(graph_id, engine_id));
  BipsProcess p(g, 0, engine_options(engine_id));
  rng::Rng rng = rng::make_stream(3, 0);
  for (auto _ : state) {
    p.step(rng);
    if (p.fully_infected()) p.reset(0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_BipsRound)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumGraphs - 1, 1),
                   benchmark::CreateDenseRange(0, kNumEngines - 1, 1)});

void BM_BipsRoundThreads(benchmark::State& state) {
  // Lane-scaling view of the dense BIPS round on the largest graph,
  // mirroring micro_cobra's BM_CobraStepThreads: bit-identical results
  // at every lane count, threads_1 guards the single-thread overhead,
  // and the scaling entries are gated on the generating machine's CPU
  // count (scripts/check_step_bench.py --suite bips_threads). Timed in
  // wall time, like BM_CobraStepThreads.
  const int threads = static_cast<int>(state.range(0));
  const graph::Graph& g = bench_graph(kNumGraphs - 1);
  state.SetLabel(std::string(graph_name(kNumGraphs - 1)) +
                 "/dense/threads_" + std::to_string(threads));
  BipsOptions opt;
  opt.process.engine = Engine::kDense;
  opt.process.kernel_threads = threads;
  BipsProcess p(g, 0, opt);
  rng::Rng rng = rng::make_stream(3, 0);
  for (auto _ : state) {
    p.step(rng);
    if (p.fully_infected()) p.reset(0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_BipsRoundThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->UseRealTime();

void BM_BipsFullInfection(benchmark::State& state) {
  const int graph_id = static_cast<int>(state.range(0));
  const int engine_id = static_cast<int>(state.range(1));
  const graph::Graph& g = bench_graph(graph_id);
  state.SetLabel(bench_label(graph_id, engine_id));
  BipsProcess p(g, 0, engine_options(engine_id));
  std::uint64_t replicate = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(4, replicate++);
    p.reset(0);
    benchmark::DoNotOptimize(p.run_until_full(rng, 100'000'000));
  }
}
BENCHMARK(BM_BipsFullInfection)
    ->ArgsProduct({{2, 4},
                   benchmark::CreateDenseRange(0, kNumEngines - 1, 1)})
    ->Unit(benchmark::kMillisecond);

void BM_BipsInfectionLanes(benchmark::State& state, int graph_id,
                           int lanes) {
  // One iteration is one auto-engine infec(source) run on a fresh stream,
  // as a workload cell's replicate pays it. Timed in wall time; round_us
  // divides the runs' wall time by the rounds run, like
  // kernel.bips.round_us.
  const graph::Graph& g = bench_graph(graph_id);
  BipsOptions opt;
  opt.process.engine = Engine::kAuto;
  opt.process.kernel_threads = lanes;
  BipsProcess p(g, 0, opt);
  std::uint64_t replicate = 0;
  std::uint64_t rounds = 0;
  std::chrono::steady_clock::duration run_time{};
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(5, replicate++);
    p.reset(0);
    const auto start = std::chrono::steady_clock::now();
    benchmark::DoNotOptimize(p.run_until_full(rng, 100'000'000));
    run_time += std::chrono::steady_clock::now() - start;
    rounds += p.round();
  }
  state.counters["round_us"] =
      std::chrono::duration<double, std::micro>(run_time).count() /
      static_cast<double>(rounds);
}

const bool kInfectionLanesRegistered = [] {
  for (const int graph_id : {kNumGraphs - 1, kComplete2048})
    for (const int lanes : {1, 2, 4})
      benchmark::RegisterBenchmark(
          (std::string("BM_BipsInfectionLanes/") + graph_name(graph_id) +
           "/" + std::to_string(lanes))
              .c_str(),
          BM_BipsInfectionLanes, graph_id, lanes)
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
  return true;
}();

}  // namespace

BENCHMARK_MAIN();
