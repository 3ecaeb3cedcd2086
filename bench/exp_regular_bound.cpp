// E2 — Theorem 1.2: on connected r-regular graphs with eigenvalue gap
// 1 - lambda > C sqrt(log n / n), the COBRA (b = 2) cover time is
// O((r/(1-lambda) + r^2) log n).
//
// Reproduction: random r-regular graphs (expanders w.h.p.) plus odd cycles
// and tori (small-gap regulars). For each instance we measure lambda and
// print the three competing predictions:
//    thm1.2 (this paper), PODC'16 ln n/gap^3, SPAA'16 r^4/phi^2 ln^2 n.
// The paper's claims to verify: (i) measured p95 <= O(thm1.2), (ii) thm1.2
// beats PODC'16 whenever 1-lambda = o(1/sqrt(r)), and beats SPAA'16
// throughout (via Cheeger 1-lambda >= phi^2/2).
//
// Registry unit: one cell per regular instance; random-regular cells
// derive their generator stream from the degree.
//
// A cell's lambda and conductance solves run on the calling thread while
// its replicates run on the rest of the team, under the cap the bound
// gives at lambda = 0, a lower bound of the true cap (the bound grows with
// lambda). A cell reruns its replicates at the true cap only when one of
// them timed out, so the rows are those of solving first.
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
#include "spectral/conductance.hpp"
#include "spectral/spectral.hpp"
#include "util/env.hpp"

namespace {
using namespace cobra;

struct Case {
  std::string label;
  std::function<graph::Graph(graph::VertexId n_base, rng::Rng&)> make;
};

std::vector<Case> cases() {
  std::vector<Case> out;
  for (const std::uint32_t r : {3u, 8u, 16u, 32u}) {
    out.push_back({"random_regular r=" + std::to_string(r),
                   [r](graph::VertexId n_base, rng::Rng& rng) {
                     // n*r must be even: an odd r takes an odd scaled n
                     // up to the next even one.
                     const graph::VertexId n =
                         r % 2 == 1 ? n_base + n_base % 2 : n_base;
                     return graph::connected_random_regular(n, r, rng);
                   }});
  }
  out.push_back({"odd cycle (tiny gap)",
                 [](graph::VertexId n_base, rng::Rng&) {
                   return graph::cycle(n_base | 1u);
                 }});
  out.push_back({"2D torus (odd side)",
                 [](graph::VertexId n_base, rng::Rng&) {
                   const auto side = static_cast<graph::VertexId>(
                       std::lround(std::sqrt(static_cast<double>(n_base))) |
                       1);
                   return graph::torus_power(side, 2);
                 }});
  return out;
}

void run_case(std::size_t index, runner::CellContext& ctx) {
  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);
  const auto n_base = util::scaled_u32(1024, 128);
  const Case c = cases()[index];

  rng::Rng grng = rng::make_stream(rng::derive_seed(seed, 21), index);
  const graph::Graph g = c.make(n_base, grng);

  const auto cap = [&](double lambda) {
    return static_cast<std::uint64_t>(
               100.0 * core::bound_thm12_regular(g.num_vertices(),
                                                 g.max_degree(), lambda)) +
           10000;
  };
  spectral::SpectralInfo spec;
  double phi = 0.0;
  const auto samples = core::estimate_cobra_cover_during_solve(
      g, core::ProcessOptions{}, 0, reps, rng::derive_seed(seed, 22), cap(0.0),
      [&] {
        spec = spectral::compute_lambda_cached(g, seed);
        phi = spectral::estimate_conductance(g, seed);
        return cap(spec.lambda);
      });
  const auto s = sim::summarize(samples.rounds);

  const double margin =
      spectral::gap_condition_margin(spec.lambda, g.num_vertices());
  const double b_new = core::bound_thm12_regular(
      g.num_vertices(), g.max_degree(), spec.lambda);
  const double b_podc =
      core::bound_podc16_regular(g.num_vertices(), spec.lambda);
  const double b_spaa = core::bound_spaa16_regular(
      g.num_vertices(), g.max_degree(), phi);

  const char* winner = (b_new <= b_podc && b_new <= b_spaa) ? "thm1.2"
                       : (b_podc <= b_spaa)                 ? "podc16"
                                                            : "spaa16";
  ctx.row().add(c.label)
      .add(static_cast<std::uint64_t>(g.num_vertices()))
      .add(static_cast<std::uint64_t>(g.max_degree()))
      .add(spec.lambda, 5).add(margin, 2)
      .add(s.mean, 1).add(s.p95, 1)
      .add(b_new, 0).add(b_podc, 0).add(b_spaa, 0)
      .add(s.p95 / b_new, 4).add(winner);
  if (samples.timeouts > 0)
    ctx.note(c.label + ": " + std::to_string(samples.timeouts) +
             " timeouts!");
}

runner::ExperimentDef make_regular_bound() {
  runner::ExperimentDef def;
  def.name = "regular_bound";
  def.description =
      "E2: Theorem 1.2 cover = O((r/gap + r^2) ln n) on regular graphs vs "
      "the PODC'16 and SPAA'16 predecessors";
  def.tables = {{
      "exp_regular_bound",
      "Theorem 1.2: cover = O((r/gap + r^2) ln n) on r-regular graphs; "
      "comparison with PODC'16 (ln n/gap^3) and SPAA'16 (r^4/phi^2 ln^2 n).",
      {"graph", "n", "r", "lambda", "margin", "mean", "p95", "thm1.2",
       "podc16", "spaa16", "p95/thm1.2", "winner"}}};
  def.cells = [] {
    std::vector<runner::CellDef> out;
    const auto all = cases();
    for (std::size_t i = 0; i < all.size(); ++i) {
      out.push_back({all[i].label, "",
                     [i](runner::CellContext& ctx) { run_case(i, ctx); }});
    }
    return out;
  };
  def.notes = {
      "margin = (1-lambda)/sqrt(ln n/n): Theorem 1.2 assumes this "
      "exceeds a constant C; rows with small margins (odd cycle) sit "
      "outside the theorem's regime and are shown for contrast.",
      "expected shape: p95/thm1.2 << 1 everywhere (the theorem's "
      "constants are >> 1). 'winner' = thm1.2 exactly where the paper "
      "claims the improvement: 1-lambda small relative to 1/sqrt(r) "
      "(low-degree expanders r=3, tori, cycles); podc16 remains "
      "smaller on strong expanders with large gap, as expected."};
  return def;
}

const runner::Registration reg(make_regular_bound);

}  // namespace
