#include "core/cobra.hpp"

#include <algorithm>

#include "util/assert.hpp"

namespace cobra::core {

FrontierKernel::Config CobraProcess::kernel_config() const {
  FrontierKernel::Config cfg;
  cfg.engine = engine_;
  cfg.laziness = options_.laziness;
  cfg.track_visited = true;
  cfg.sampler = options_.sampler;
  cfg.metrics = options_.metrics;
  cfg.kernel_threads = resolve_kernel_threads(options_.kernel_threads);
  return cfg;
}

CobraProcess::CobraProcess(const graph::Graph& g, ProcessOptions options)
    : graph_(&g),
      options_(std::move(options)),
      engine_((options_.validate(), resolve_engine(options_.engine))),
      kernel_(g, kernel_config()) {
  COBRA_CHECK_MSG(g.num_vertices() >= 1, "empty graph");
  COBRA_CHECK_MSG(g.num_vertices() == 1 || g.min_degree() >= 1,
                  "COBRA needs every vertex to have a neighbour to push to "
                  "(the single-vertex graph is the one degree-0 exception)");
  reset(0);
}

void CobraProcess::reset(graph::VertexId start) {
  const graph::VertexId one[] = {start};
  reset(std::span<const graph::VertexId>(one, 1));
}

void CobraProcess::reset(std::span<const graph::VertexId> start) {
  kernel_.assign(start);
  round_ = 0;
  transmissions_ = 0;
}

std::uint32_t CobraProcess::step(rng::Rng& rng) {
  // One round key from the sequential stream; every per-vertex choice
  // below is a pure function of (round_key, vertex), so the frontier
  // representation the kernel picks cannot affect the outcome.
  const std::uint64_t round_key = rng.next_u64();
  kernel_.begin_round(kernel_.density_score(kernel_.frontier_size()));
  const Branching branching = options_.branching;
  // A lean body (core/frontier_kernel.hpp): invariants captured by
  // value, the push rule picked once per round from the laziness.
  const std::uint64_t transmissions = kernel_.sampler().with_rows(
      [&](const auto rows) {
        return kernel_.frontier_scan<Sink::kCoalescing>(
            [round_key, branching, rows](auto& lane, graph::VertexId u) {
              VertexDraws draws = lane.draws(round_key, u);
              const std::uint32_t fanout = draw_fanout(branching, draws);
              lane.tally(fanout);
              const auto row = rows(u);
              for (std::uint32_t j = 0; j < fanout; ++j)
                lane.emit(row(draws.next_word()));
            });
      });
  transmissions_ += transmissions;
  const std::uint32_t newly = kernel_.commit(FrontierKernel::Commit::kReplace);
  if (StepMetrics* m = kernel_.metrics()) m->emissions += transmissions;
  ++round_;
  return newly;
}

std::optional<std::uint64_t> CobraProcess::run_until_cover(
    rng::Rng& rng, std::uint64_t max_rounds) {
  if (all_visited()) return round_;
  while (round_ < max_rounds) {
    step(rng);
    if (all_visited()) return round_;
  }
  return std::nullopt;
}

std::optional<std::uint64_t> CobraProcess::run_until_hit(
    rng::Rng& rng, graph::VertexId target, std::uint64_t max_rounds) {
  COBRA_CHECK(target < graph_->num_vertices());
  if (is_visited(target)) return round_;
  while (round_ < max_rounds) {
    step(rng);
    if (is_visited(target)) return round_;
  }
  return std::nullopt;
}

}  // namespace cobra::core
