// E1 — Theorem 1.1: for every connected graph, the COBRA (b = 2) cover time
// is O(m + dmax^2 log n), w.h.p.
//
// Reproduction: measure cover times across heterogeneous families and sizes
// and report measured p95 / bound (constant 1). The theorem predicts the
// ratio stays bounded (in fact shrinks or stays flat) as n grows within each
// family; any family where the ratio grew with n would falsify the bound's
// shape.
//
// Registry unit: one cell per (family, size) point — 8 x 4 cells whose
// generator streams were already derived per point, so sharding them
// reproduces the historical archive bit for bit.
#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/estimators.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "runner/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {
using namespace cobra;

struct Family {
  std::string name;
  std::function<graph::Graph(graph::VertexId, rng::Rng&)> make;
};

const std::vector<Family>& families() {
  static const std::vector<Family> kFamilies = {
      {"path", [](graph::VertexId n, rng::Rng&) { return graph::path(n); }},
      {"cycle", [](graph::VertexId n, rng::Rng&) { return graph::cycle(n); }},
      {"star", [](graph::VertexId n, rng::Rng&) { return graph::star(n); }},
      {"binary_tree",
       [](graph::VertexId n, rng::Rng&) { return graph::binary_tree(n); }},
      {"lollipop",  // clique ~ sqrt(n) + long tail: mixes both bound terms
       [](graph::VertexId n, rng::Rng&) {
         const auto k = static_cast<graph::VertexId>(std::sqrt(n) * 2);
         return graph::lollipop(std::max<graph::VertexId>(k, 3),
                                n > k ? n - k : 1);
       }},
      {"barbell",
       [](graph::VertexId n, rng::Rng&) {
         const auto k = static_cast<graph::VertexId>(std::sqrt(n) * 2);
         return graph::barbell(std::max<graph::VertexId>(k, 3), 3);
       }},
      {"gnp(2ln n/n)",
       [](graph::VertexId n, rng::Rng& rng) {
         return graph::connected_erdos_renyi(n, 2.0, rng);
       }},
      {"barabasi_albert",
       [](graph::VertexId n, rng::Rng& rng) {
         return graph::barabasi_albert(n, 3, rng);
       }},
  };
  return kFamilies;
}

std::vector<graph::VertexId> sizes() {
  return {util::scaled_u32(256, 64), util::scaled_u32(512, 128),
          util::scaled_u32(1024, 256), util::scaled_u32(2048, 512)};
}

void run_point(std::size_t family_index, graph::VertexId n,
               runner::CellContext& ctx) {
  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);
  const Family& family = families()[family_index];

  rng::Rng grng = rng::make_stream(rng::derive_seed(seed, 1), n * 131 + 7);
  const graph::Graph g = family.make(n, grng);
  const double bound = core::bound_thm11_general(
      g.num_vertices(), g.num_edges(), g.max_degree());
  const auto samples = core::estimate_cobra_cover(
      g, core::ProcessOptions{}, 0, reps, rng::derive_seed(seed, n),
      static_cast<std::uint64_t>(200.0 * bound) + 1000);
  const auto s = sim::summarize(samples.rounds);
  const double ratio = s.p95 / bound;
  ctx.row().add(family.name)
      .add(static_cast<std::uint64_t>(g.num_vertices()))
      .add(g.num_edges())
      .add(static_cast<std::uint64_t>(g.max_degree()))
      .add(s.mean, 1).add(s.p95, 1).add(s.max, 1).add(bound, 0)
      .add(ratio, 4);
  if (samples.timeouts > 0)
    ctx.note(family.name + " n=" + std::to_string(n) + ": " +
             std::to_string(samples.timeouts) + " timeouts!");
}

runner::ExperimentDef make_general_bound() {
  runner::ExperimentDef def;
  def.name = "general_bound";
  def.description =
      "E1: Theorem 1.1 cover(u) = O(m + dmax^2 ln n) across heterogeneous "
      "families and sizes";
  def.tables = {{
      "exp_general_bound",
      "Theorem 1.1: cover(u) = O(m + dmax^2 ln n) on arbitrary connected "
      "graphs (b = 2). Ratio = measured p95 / bound must stay bounded in n.",
      {"family", "n", "m", "dmax", "mean", "p95", "max", "bound",
       "p95/bound"}}};
  def.cells = [] {
    std::vector<runner::CellDef> out;
    const auto ns = sizes();
    for (std::size_t f = 0; f < families().size(); ++f) {
      for (const graph::VertexId n : ns) {
        out.push_back({families()[f].name + "/n=" + std::to_string(n),
                       families()[f].name,
                       [f, n](runner::CellContext& ctx) {
                         run_point(f, n, ctx);
                       }});
      }
    }
    return out;
  };
  def.summarize = [](const std::vector<util::CsvTable>& tables) {
    // Shape check per family: the ratio at the largest size should not
    // exceed the ratio at the smallest size by more than ~2 (an O(.)
    // claim). Rows arrive in enumeration order, so first/last per family
    // are the smallest/largest size.
    const std::size_t family_col = tables[0].column("family");
    const auto ratios = tables[0].numeric_column("p95/bound");
    std::vector<std::string> notes;
    for (const Family& family : families()) {
      double first = 0.0, last = 0.0;
      bool seen = false;
      for (std::size_t r = 0; r < tables[0].num_rows(); ++r) {
        if (tables[0].rows[r][family_col] != family.name) continue;
        if (!seen) first = ratios[r];
        last = ratios[r];
        seen = true;
      }
      if (!seen || first <= 0.0) continue;
      const double trend = last / first;
      notes.push_back(family.name +
                      ": ratio trend (largest/smallest n) = " +
                      util::format_double(trend, 3) +
                      (trend < 2.0
                           ? "  [consistent with O(m + dmax^2 ln n)]"
                           : "  [WARNING: ratio growing]"));
    }
    return notes;
  };
  return def;
}

const runner::Registration reg(make_general_bound);

}  // namespace
