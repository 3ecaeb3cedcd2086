// E4 — the paper's flagship example (Section 1): the hypercube Q_d,
// n = 2^d, r = log2 n, with conductance and eigenvalue gap Theta(1/log n).
//
// Successive bounds on the COBRA cover time:
//   SPAA'16  (r^4/phi^2) ln^2 n      = O(log^8 n)
//   PODC'16  ln n / gap^3            = O(log^4 n)
//   THIS PAPER  (r/gap + r^2) ln n   = O(log^3 n)
// and the paper closes noting no reason it should exceed Theta(log n).
//
// The hypercube is bipartite (lambda = 1), so the spectral bounds apply to
// the lazy process (gap exactly 1/d); we measure both lazy and plain b = 2
// COBRA. The fitted exponent of cover vs d answers the conjecture's shape:
// the paper predicts ~1 (Theta(log n)), far below the bound's 3.
//
// Registry unit: one cell per dimension d.
#include <cmath>
#include <string>
#include <vector>

#include "core/bounds.hpp"
#include "core/estimators.hpp"
#include "graph/generators.hpp"
#include "rng/stream.hpp"
#include "runner/registry.hpp"
#include "sim/experiment.hpp"
#include "sim/stats.hpp"
#include "spectral/spectral.hpp"
#include "util/env.hpp"
#include "util/table.hpp"

namespace {
using namespace cobra;

void run_dimension(std::uint32_t d, runner::CellContext& ctx) {
  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);

  const graph::Graph g = graph::hypercube(d);
  const std::uint64_t n = g.num_vertices();

  core::ProcessOptions plain;
  const auto plain_samples = core::estimate_cobra_cover(
      g, plain, 0, reps, rng::derive_seed(seed, d), 1'000'000);

  core::ProcessOptions lazy;
  lazy.laziness = 0.5;
  const auto lazy_samples = core::estimate_cobra_cover(
      g, lazy, 0, reps, rng::derive_seed(seed, 100 + d), 1'000'000);

  const double lambda_lazy = spectral::lambda_lazy_hypercube(d);  // 1-1/d
  const double phi = 1.0 / static_cast<double>(d);  // Harper's cut
  const double b_new = core::bound_thm12_regular(n, d, lambda_lazy);
  const double b_podc = core::bound_podc16_regular(n, lambda_lazy);
  const double b_spaa = core::bound_spaa16_regular(n, d, phi);

  const auto sp = sim::summarize(plain_samples.rounds);
  const auto sl = sim::summarize(lazy_samples.rounds);

  ctx.row().add(static_cast<std::uint64_t>(d)).add(n)
      .add(sp.mean, 1).add(sl.mean, 1).add(sl.p95, 1)
      .add(b_new, 0).add(b_podc, 0).add(b_spaa, 0)
      .add(sl.p95 / b_new, 5);
}

runner::ExperimentDef make_hypercube() {
  runner::ExperimentDef def;
  def.name = "hypercube";
  def.description =
      "E4: hypercube Q_d — measured COBRA cover vs the O(log^8), O(log^4), "
      "O(log^3) bound hierarchy";
  def.tables = {{
      "exp_hypercube",
      "Hypercube Q_d: measured COBRA cover vs the O(log^8), O(log^4), "
      "O(log^3) bound hierarchy (lazy process; gap = 1/d, phi = 1/d).",
      {"d", "n", "plain mean", "lazy mean", "lazy p95", "thm1.2~log^3",
       "podc16~log^4", "spaa16~log^8", "lazy p95/thm1.2"}}};
  def.cells = [] {
    const std::uint32_t d_max = util::scaled_u32(13, 9);
    std::vector<runner::CellDef> cells;
    for (std::uint32_t d = 4; d <= d_max; ++d) {
      cells.push_back({"d=" + std::to_string(d), "",
                       [d](runner::CellContext& ctx) {
                         run_dimension(d, ctx);
                       }});
    }
    return cells;
  };
  def.summarize = [](const std::vector<util::CsvTable>& tables) {
    const auto ds = tables[0].numeric_column("d");
    const auto lazy_means = tables[0].numeric_column("lazy mean");
    const auto plain_means = tables[0].numeric_column("plain mean");
    const auto fit_lazy = sim::loglog_fit(ds, lazy_means);
    const auto fit_plain = sim::loglog_fit(ds, plain_means);
    return std::vector<std::string>{
        "fitted exponent of cover vs d (lazy): " +
            util::format_double(fit_lazy.slope, 3) +
            " (R^2 = " + util::format_double(fit_lazy.r2, 4) + ")",
        "fitted exponent of cover vs d (plain): " +
            util::format_double(fit_plain.slope, 3) +
            " (R^2 = " + util::format_double(fit_plain.r2, 4) + ")"};
  };
  def.notes = {
      "paper: bound guarantees exponent <= 3; conjecture (open "
      "problem) is exponent 1 — the measured exponent near 1 supports "
      "the conjecture."};
  return def;
}

const runner::Registration reg(make_hypercube);

}  // namespace
