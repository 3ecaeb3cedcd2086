// BIPS frontier-kernel A/B harness: every benchmark runs with an explicit
// (graph family, engine) pair so reference vs sparse vs dense vs auto can
// be compared like for like — all four are bit-for-bit identical in
// results (tests/test_bips_engines.cpp), so the ratios are pure cost.
// Three views of the hot path:
//
//   BM_BipsRound            — per-round cost along full-infection
//                             trajectories (restarting when absorbed), the
//                             mix experiments actually pay; items = n per
//                             round;
//   BM_BipsFullInfection    — end-to-end infec(source) runs;
//   BM_BipsRoundProbability — E14 kernel ablation: the probability kernel's
//                             O(d(A_t)) scan against the sampling kernel
//                             (engine-independent by design).
//
// The committed baseline bench_results/BENCH_bips.json is produced by this
// binary (see README.md "Performance" for the regeneration command) and
// guarded by scripts/check_step_bench.py --suite bips: the dense engine
// must stay >= 2x the reference engine on the BM_BipsRound trajectory of
// the largest b = 2 random-regular graph (ctest bench_bips_baseline_check
// + the CI bench job).
#include <benchmark/benchmark.h>

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

// Index 4 is "the largest random-regular config" the acceptance criterion
// and the baseline check refer to.
graph::Graph build_graph(int id) {
  rng::Rng rng = rng::make_stream(31338, static_cast<std::uint64_t>(id));
  switch (id) {
    case 0: return graph::complete(1024);          // dense
    case 1: return graph::torus_power(64, 2);      // sparse, degree 4
    case 2: return graph::connected_random_regular(4096, 8, rng);
    case 3: return graph::cycle(4096);             // sparse, degree 2
    default: return graph::connected_random_regular(65536, 8, rng);
  }
}

const char* graph_name(int id) {
  switch (id) {
    case 0: return "complete_1024";
    case 1: return "torus_64x64";
    case 2: return "regular_4096_r8";
    case 3: return "cycle_4096";
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

constexpr Engine kEngines[] = {Engine::kReference, Engine::kSparse,
                               Engine::kDense, Engine::kAuto};

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
                   benchmark::CreateDenseRange(0, 3, 1)});

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
    ->ArgsProduct({{2, 4}, benchmark::CreateDenseRange(0, 3, 1)})
    ->Unit(benchmark::kMillisecond);

void BM_BipsRoundProbability(benchmark::State& state) {
  // E14 design ablation: the probability kernel's O(d(A_t) + |N(A_t)|)
  // round against the sampling kernel's (see BM_BipsRound for the latter).
  const int graph_id = static_cast<int>(state.range(0));
  const graph::Graph& g = bench_graph(graph_id);
  state.SetLabel(std::string(graph_name(graph_id)) + "/probability");
  BipsOptions opt;
  opt.kernel = BipsKernel::kProbability;
  BipsProcess p(g, 0, opt);
  rng::Rng rng = rng::make_stream(3, 0);
  for (auto _ : state) {
    p.step(rng);
    if (p.fully_infected()) p.reset(0);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(g.num_vertices()));
}
BENCHMARK(BM_BipsRoundProbability)->DenseRange(0, kNumGraphs - 1);

}  // namespace

BENCHMARK_MAIN();
