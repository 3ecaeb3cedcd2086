// Graph generator throughput (experiments regenerate graphs per
// configuration, so generation must stay cheap relative to simulation;
// BM_GenRandomRegular/65536/8 and BM_GenComplete/2048 are the graphs the
// expander-prebaked perfbench workload bakes, and BM_GenRandomRegular/8192/8
// and /8192/32 are cells of the Theorem 1.2 experiment at --scale 8),
// plus the BM_GraphIo* axis: the same workhorse graph obtained by
// in-process generation vs loading a pre-baked binary .cgr (owned copy
// vs O(header) mmap open vs mmap + full adjacency scan). The committed
// bench_results/BENCH_graph_io.json baseline is guarded by
// scripts/check_step_bench.py --suite graph_io.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <filesystem>
#include <string>

#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "graph/spec.hpp"
#include "rng/stream.hpp"

namespace {

using namespace cobra;

// Labels use the graph-spec names, so these rows read against the
// `cobra graph gen` timings of the same graphs.
void BM_GenComplete(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::complete(static_cast<graph::VertexId>(state.range(0))));
  state.SetLabel("complete_" + std::to_string(state.range(0)));
}
BENCHMARK(BM_GenComplete)
    ->Arg(256)
    ->Arg(1024)
    ->Arg(2048)
    ->Arg(4096)
    ->Unit(benchmark::kMillisecond);

void BM_GenHypercube(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::hypercube(static_cast<std::uint32_t>(state.range(0))));
}
BENCHMARK(BM_GenHypercube)->Arg(10)->Arg(14);

void BM_GenTorus2D(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::torus_power(
        static_cast<graph::VertexId>(state.range(0)), 2));
}
BENCHMARK(BM_GenTorus2D)->Arg(32)->Arg(128);

void BM_GenGnp(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  const double p = 10.0 / static_cast<double>(n);  // mean degree 10
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(5, salt++);
    benchmark::DoNotOptimize(graph::erdos_renyi_gnp(n, p, rng));
  }
}
BENCHMARK(BM_GenGnp)->Arg(1 << 12)->Arg(1 << 15);

void BM_GenRandomRegular(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  const auto r = static_cast<std::uint32_t>(state.range(1));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(6, salt++);
    benchmark::DoNotOptimize(graph::random_regular(n, r, rng));
  }
  state.SetLabel("regular_" + std::to_string(n) + "_r" + std::to_string(r));
}
BENCHMARK(BM_GenRandomRegular)
    ->Args({1 << 12, 4})
    ->Args({1 << 12, 16})
    ->Args({1 << 13, 8})
    ->Args({1 << 13, 32})
    ->Args({1 << 16, 8})
    ->Unit(benchmark::kMillisecond);

void BM_GenBarabasiAlbert(benchmark::State& state) {
  const auto n = static_cast<graph::VertexId>(state.range(0));
  std::uint64_t salt = 0;
  for (auto _ : state) {
    rng::Rng rng = rng::make_stream(7, salt++);
    benchmark::DoNotOptimize(graph::barabasi_albert(n, 3, rng));
  }
}
BENCHMARK(BM_GenBarabasiAlbert)->Arg(1 << 12)->Unit(benchmark::kMillisecond);

// --- BM_GraphIo*: generate vs load vs mmap for the workhorse graph -----

constexpr const char* kIoSpec = "regular_262144_r8";

// Bakes the spec to a temp .cgr once; every load/mmap bench reads it.
const std::string& baked_cgr_path() {
  static const std::string path = [] {
    const std::string p = (std::filesystem::temp_directory_path() /
                           "cobra_micro_graph_io.cgr")
                              .string();
    graph::write_cgr_file(graph::build_graph_spec(kIoSpec), p);
    return p;
  }();
  return path;
}

void BM_GraphIoGenerate(benchmark::State& state) {
  for (auto _ : state)
    benchmark::DoNotOptimize(graph::build_graph_spec(kIoSpec));
  state.SetLabel(std::string(kIoSpec) + "/generate");
}
BENCHMARK(BM_GraphIoGenerate)->Unit(benchmark::kMillisecond);

void BM_GraphIoLoadOwned(benchmark::State& state) {
  const std::string& path = baked_cgr_path();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::load_cgr_file(path, graph::CgrLoadMode::kOwned));
  state.SetLabel(std::string(kIoSpec) + "/load_owned");
}
BENCHMARK(BM_GraphIoLoadOwned)->Unit(benchmark::kMillisecond);

void BM_GraphIoMmapOpen(benchmark::State& state) {
  const std::string& path = baked_cgr_path();
  for (auto _ : state)
    benchmark::DoNotOptimize(
        graph::load_cgr_file(path, graph::CgrLoadMode::kMapped));
  state.SetLabel(std::string(kIoSpec) + "/mmap_open");
}
BENCHMARK(BM_GraphIoMmapOpen)->Unit(benchmark::kMillisecond);

void BM_GraphIoMmapScan(benchmark::State& state) {
  const std::string& path = baked_cgr_path();
  for (auto _ : state) {
    const graph::Graph g =
        graph::load_cgr_file(path, graph::CgrLoadMode::kMapped);
    std::uint64_t sum = 0;
    for (const graph::VertexId v : g.adjacency()) sum += v;
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(std::string(kIoSpec) + "/mmap_scan");
}
BENCHMARK(BM_GraphIoMmapScan)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
