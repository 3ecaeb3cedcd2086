// E5/E6/E7 — the per-family cover-time claims the paper quotes:
//   E5 (Dutta et al.): complete graph K_n covered in O(log n) rounds;
//   E6 ([4] + intro): r-regular expanders covered in O(log n) for ANY
//       degree 3 <= r <= n-1 (contrasting Dutta's O(log^2 n));
//   E7 (Dutta / SPAA'16): D-dimensional tori in O~(n^{1/D}) resp.
//       O(D^2 n^{1/D}).
// Each block reports the measured scaling exponent / log-ratio the claim
// predicts.
//
// Registry unit: one cell per (family, size/degree/side) point, spread
// across three tables — one per claim. Expander instances derive their
// generator stream from the degree so every cell is schedule-independent.
#include <cmath>
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

constexpr std::size_t kComplete = 0;
constexpr std::size_t kExpander = 1;
constexpr std::size_t kGrid = 2;

void run_complete(std::uint32_t p, runner::CellContext& ctx) {
  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);
  const auto n = static_cast<graph::VertexId>(1u << p);
  const graph::Graph g = graph::complete(n);
  const auto samples = core::estimate_cobra_cover(
      g, core::ProcessOptions{}, 0, reps, rng::derive_seed(seed, p), 100000);
  const auto s = sim::summarize(samples.rounds);
  ctx.table(kComplete).row().add(static_cast<std::uint64_t>(n))
      .add(s.mean, 2).add(s.p95, 1)
      .add(s.mean / std::log(static_cast<double>(n)), 3);
}

void run_expander(std::uint32_t r, runner::CellContext& ctx) {
  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);
  auto n = util::scaled_u32(4096, 256);
  if (r % 2 == 1) n += n % 2;  // n*r must be even
  rng::Rng grng = rng::make_stream(rng::derive_seed(seed, 41), r);
  const graph::Graph g = graph::connected_random_regular(n, r, grng);
  const auto samples = core::estimate_cobra_cover(
      g, core::ProcessOptions{}, 0, reps, rng::derive_seed(seed, 50 + r),
      100000);
  const auto s = sim::summarize(samples.rounds);
  ctx.table(kExpander).row().add(static_cast<std::uint64_t>(r))
      .add(static_cast<std::uint64_t>(n))
      .add(s.mean, 2).add(s.p95, 1)
      .add(s.mean / std::log(static_cast<double>(n)), 3);
}

void run_grid(std::uint32_t D, graph::VertexId side,
              runner::CellContext& ctx) {
  const std::uint64_t seed = util::global_seed();
  const std::uint64_t reps = sim::default_replicates(24);
  const graph::Graph g = graph::torus_power(side, D);
  const double n = static_cast<double>(g.num_vertices());
  const auto samples = core::estimate_cobra_cover(
      g, core::ProcessOptions{}, 0, reps,
      rng::derive_seed(seed, 60 + D * 100 + side),
      static_cast<std::uint64_t>(1000.0 * std::pow(n, 1.0 / D)) + 10000);
  const auto s = sim::summarize(samples.rounds);
  const double root = std::pow(n, 1.0 / D);
  ctx.table(kGrid).row().add(static_cast<std::uint64_t>(D))
      .add(static_cast<std::uint64_t>(g.num_vertices()))
      .add(s.mean, 1).add(s.p95, 1).add(root, 1).add(s.mean / root, 3);
}

std::vector<graph::VertexId> grid_sides(std::uint32_t D) {
  // Comparable vertex counts per dimension, odd sides (non-bipartite).
  if (D == 1) return {129, 257, 513, 1025};
  if (D == 2) return {11, 17, 23, 33};
  return {5, 7, 9, 11};
}

runner::ExperimentDef make_families() {
  runner::ExperimentDef def;
  def.name = "families";
  def.description =
      "E5/E6/E7: per-family cover-time claims — complete graphs, "
      "expanders of every degree, D-dimensional tori";
  def.tables = {
      {"exp_families_complete",
       "E5 (Dutta et al.): K_n is covered in O(log n) rounds.",
       {"n", "mean", "p95", "mean/ln n"}},
      {"exp_families_expander",
       "E6 ([4]): random r-regular expanders are covered in O(log n) "
       "rounds for any 3 <= r <= n-1 (not O(log^2 n)).",
       {"r", "n", "mean", "p95", "mean/ln n"}},
      {"exp_families_grid",
       "E7: D-dim tori covered in O~(n^{1/D}) [5,6] / O(D^2 n^{1/D}) [8]; "
       "fitted exponent of cover vs n should be ~1/D.",
       {"D", "n", "mean", "p95", "n^(1/D)", "mean/n^(1/D)"}}};
  def.cells = [] {
    std::vector<runner::CellDef> cells;
    for (std::uint32_t p = 7; p <= 12; ++p) {
      cells.push_back({"complete/n=" + std::to_string(1u << p), "complete",
                       [p](runner::CellContext& ctx) {
                         run_complete(p, ctx);
                       }});
    }
    for (const std::uint32_t r : {3u, 4u, 8u, 16u, 32u, 64u}) {
      cells.push_back({"expander/r=" + std::to_string(r), "expander",
                       [r](runner::CellContext& ctx) {
                         run_expander(r, ctx);
                       }});
    }
    for (const std::uint32_t D : {1u, 2u, 3u}) {
      for (const graph::VertexId side : grid_sides(D)) {
        cells.push_back({"grid/D=" + std::to_string(D) +
                             "/side=" + std::to_string(side),
                         "grid/D=" + std::to_string(D),
                         [D, side](runner::CellContext& ctx) {
                           run_grid(D, side, ctx);
                         }});
      }
    }
    return cells;
  };
  def.summarize = [](const std::vector<util::CsvTable>& tables) {
    std::vector<std::string> notes;
    {
      const auto ns = tables[kComplete].numeric_column("n");
      const auto means = tables[kComplete].numeric_column("mean");
      std::vector<double> lnns;
      for (const double n : ns) lnns.push_back(std::log(n));
      const auto fit = sim::linear_fit(lnns, means);
      notes.push_back("complete: cover vs ln n is linear: slope " +
                      util::format_double(fit.slope, 3) + ", R^2 " +
                      util::format_double(fit.r2, 4) +
                      "  [O(log n) claim: slope is the constant, "
                      "R^2 ~ 1]");
    }
    {
      const auto Ds = tables[kGrid].numeric_column("D");
      const auto ns = tables[kGrid].numeric_column("n");
      const auto means = tables[kGrid].numeric_column("mean");
      for (const std::uint32_t D : {1u, 2u, 3u}) {
        std::vector<double> dns, dmeans;
        for (std::size_t i = 0; i < Ds.size(); ++i) {
          if (static_cast<std::uint32_t>(Ds[i]) != D) continue;
          dns.push_back(ns[i]);
          dmeans.push_back(means[i]);
        }
        if (dns.size() < 2) continue;
        const auto fit = sim::loglog_fit(dns, dmeans);
        notes.push_back("grid D=" + std::to_string(D) +
                        ": fitted exponent " +
                        util::format_double(fit.slope, 3) +
                        " vs predicted " +
                        util::format_double(1.0 / D, 3) + " (R^2 " +
                        util::format_double(fit.r2, 4) + ")");
      }
    }
    return notes;
  };
  def.notes = {
      "expander: the mean/ln n column should be a (roughly) r-independent "
      "constant: the cover time is O(log n) at every degree."};
  return def;
}

const runner::Registration reg(make_families);

}  // namespace
