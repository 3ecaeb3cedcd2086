// Spectral solver cost: the regular-graph experiments compute lambda per
// instance. BM_Lanczos reports its steps and certified residual; one step
// should cost a small multiple of BM_NormalizedMatvec on the same graph
// (scripts/check_step_bench.py --suite spectral gates that ratio). Both
// run on the calling thread, as every spectral solve does.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "spectral/dense.hpp"
#include "spectral/lanczos.hpp"

namespace {

using namespace cobra;

// The Lanczos graphs: the Theorem 1.2 experiment's random-regular size at
// a sparse and a denser degree, and the odd cycle whose Krylov space only
// exhausts after n/2 steps.
constexpr int kNumGraphs = 3;

graph::Graph lanczos_graph(int id) {
  rng::Rng rng = rng::make_stream(9, static_cast<std::uint64_t>(id));
  switch (id) {
    case 0: return graph::connected_random_regular(8192, 3, rng);
    case 1: return graph::connected_random_regular(8192, 8, rng);
    default: return graph::cycle(8193);
  }
}

const char* lanczos_graph_name(int id) {
  static const char* const kNames[kNumGraphs] = {
      "regular_8192_r3", "regular_8192_r8", "cycle_8193"};
  return kNames[id];
}

void BM_DenseJacobi(benchmark::State& state) {
  rng::Rng grng = rng::make_stream(8, 0);
  const graph::Graph g = graph::connected_random_regular(
      static_cast<graph::VertexId>(state.range(0)), 4, grng);
  for (auto _ : state)
    benchmark::DoNotOptimize(spectral::walk_spectrum_dense(g));
}
BENCHMARK(BM_DenseJacobi)->Arg(64)->Arg(128)->Arg(256)
    ->Unit(benchmark::kMillisecond);

void BM_NormalizedMatvec(benchmark::State& state) {
  const int id = static_cast<int>(state.range(0));
  const graph::Graph g = lanczos_graph(id);
  const graph::VertexId n = g.num_vertices();
  std::vector<double> inv_sqrt_deg(n), scaled_x(n), y(n);
  for (graph::VertexId u = 0; u < n; ++u) {
    inv_sqrt_deg[u] = 1.0 / std::sqrt(static_cast<double>(g.degree(u)));
    scaled_x[u] = std::sin(static_cast<double>(u)) * inv_sqrt_deg[u];
  }
  for (auto _ : state) {
    spectral::apply_normalized_adjacency(g, inv_sqrt_deg, scaled_x, y);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetLabel(lanczos_graph_name(id));
}
BENCHMARK(BM_NormalizedMatvec)->DenseRange(0, kNumGraphs - 1)
    ->Unit(benchmark::kMicrosecond);

void BM_Lanczos(benchmark::State& state) {
  const int id = static_cast<int>(state.range(0));
  const graph::Graph g = lanczos_graph(id);
  std::uint64_t salt = 0;
  double steps = 0.0, worst_err = 0.0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(10, salt++);
    const spectral::LanczosResult lz = spectral::lanczos_extremes(g, rng);
    benchmark::DoNotOptimize(lz);
    steps += lz.steps;
    worst_err = std::max(worst_err, lz.lambda_err);
  }
  // Mean steps per solve, so real_time / steps is the cost of one step.
  state.counters["steps"] =
      benchmark::Counter(steps, benchmark::Counter::kAvgIterations);
  state.counters["lambda_err"] = worst_err;
  state.SetLabel(lanczos_graph_name(id));
}
BENCHMARK(BM_Lanczos)->DenseRange(0, kNumGraphs - 1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
