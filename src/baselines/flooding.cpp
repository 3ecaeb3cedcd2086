#include "baselines/flooding.hpp"

#include "util/assert.hpp"

namespace cobra::baselines {

FloodingResult flooding_cover(const graph::Graph& g, graph::VertexId start,
                              std::uint64_t max_rounds,
                              const BaselineOptions& options) {
  COBRA_CHECK(start < g.num_vertices());
  using core::FrontierKernel;
  FrontierKernel::Config cfg;
  cfg.engine = core::resolve_engine(options.engine);
  cfg.kernel_threads = core::resolve_kernel_threads(options.kernel_threads);
  cfg.build_sampler = false;  // deterministic: no destinations to sample
  cfg.track_visited = true;
  FrontierKernel kernel(g, cfg);
  const graph::VertexId one[] = {start};
  kernel.assign(one);
  std::uint64_t informed_degree = g.degree(start);

  FloodingResult result;
  while (!kernel.all_visited() && result.rounds < max_rounds) {
    result.transmissions += informed_degree;
    kernel.begin_round(kernel.density_score(kernel.frontier_size()));
    kernel.frontier_scan<core::Sink::kGrowth>(
        [&](auto& lane, graph::VertexId u) {
          for (const graph::VertexId v : g.neighbors(u)) lane.emit(v);
        });
    const std::uint32_t newly =
        kernel.commit(FrontierKernel::Commit::kReplace);
    ++result.rounds;
    if (newly == 0) break;  // disconnected graph: cannot progress
    kernel.for_each_in_frontier(
        [&](graph::VertexId v) { informed_degree += g.degree(v); });
  }
  result.completed = kernel.all_visited();
  return result;
}

}  // namespace cobra::baselines
