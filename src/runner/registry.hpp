// The experiment registry: every bench/exp_* driver registers itself as a
// named, self-describing unit of work.
//
// An experiment owns one or more output tables (console table + CSV
// archive, e.g. exp_families has three sections and exp_cover_profile adds
// a per-round curves archive) and enumerates a list of independent *cells*
// — one graph-family × size point each. Cells are the unit of sharding
// (`cobra run families --shard 2/8` executes indices 1, 9, 17, ... of the
// enumeration) and of checkpointing (a cell is journaled exactly when all
// of its rows are on disk). Cell bodies must therefore derive their
// randomness from util::global_seed() plus cell-local salts only — never
// from state shared with other cells — so any shard/resume schedule
// reproduces the unsharded run bit for bit.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "runner/cell.hpp"
#include "util/csv.hpp"

namespace cobra::runner {

/// One console table + CSV archive produced by an experiment.
struct TableDef {
  std::string id;     ///< CSV base name, e.g. "exp_families_grid"
  std::string title;  ///< banner line (the paper claim being reproduced)
  std::vector<std::string> columns;  ///< shared table/CSV header
};

/// One independently runnable slice of an experiment.
struct CellDef {
  std::string id;     ///< stable within the experiment (journal key)
  std::string group;  ///< console grouping: a rule is drawn on group change
  std::function<void(CellContext&)> run;  ///< the cell body
};

/// A registered experiment: metadata, outputs and its cell enumeration.
struct ExperimentDef {
  std::string name;         ///< registry key, e.g. "families"
  std::string description;  ///< one-liner for `cobra list`
  std::vector<TableDef> tables;  ///< output tables, in definition order
  /// Enumerates the cells at the *current* scale (call after flag/env
  /// overrides are applied). Must be cheap — no graph construction — and
  /// deterministic: same scale, same list.
  std::function<std::vector<CellDef>()> cells;
  /// Fixed observations printed under the tables.
  std::vector<std::string> notes;
  /// Optional: notes computed from the complete result set (fitted
  /// exponents, cross-cell maxima). Receives one parsed CSV per TableDef,
  /// in definition order; runs after an unsharded run or a merge, when all
  /// cells are present.
  std::function<std::vector<std::string>(
      const std::vector<util::CsvTable>&)> summarize;
  /// True when the experiment's cells come from the COBRA_GRAPHS /
  /// --graphs spec list (graph/spec.hpp). The sweep supervisor pre-bakes
  /// such a list once to <out-dir>/graphs/*.cgr and hands every worker
  /// `file:` references, so all workers mmap one shared on-disk CSR
  /// instead of regenerating the graph per process.
  bool uses_graph_specs = false;
};

class Registry {
 public:
  /// The process-wide registry (Meyers singleton: safe to use from static
  /// registration objects in any TU).
  static Registry& instance();

  /// Registers an experiment; names must be unique.
  void add(ExperimentDef def);

  /// All experiments, sorted by name.
  [[nodiscard]] std::vector<const ExperimentDef*> all() const;

  /// Experiments whose name contains `filter` (all when empty), sorted.
  [[nodiscard]] std::vector<const ExperimentDef*> match(
      std::string_view filter) const;

  /// Lookup by exact name; nullptr when absent.
  [[nodiscard]] const ExperimentDef* find(std::string_view name) const;

 private:
  std::vector<ExperimentDef> experiments_;
};

/// Static registration helper:
///   namespace { const runner::Registration reg(make_my_experiment); }
struct Registration {
  /// Runs `factory` and adds its experiment to the global registry.
  explicit Registration(ExperimentDef (*factory)()) {
    Registry::instance().add(factory());
  }
};

/// The deterministic slice of cell indices owned by shard `index`/`count`
/// (1-based index): round-robin by enumeration position, so size-ordered
/// sweeps spread their heavy tail across shards.
std::vector<std::size_t> shard_slice(std::size_t num_cells, int index,
                                     int count);

/// Cost-balanced variant of shard_slice: given one non-negative cost per
/// cell (journal-v4 wall times, microseconds), assigns cells to shards by
/// deterministic longest-processing-time greedy — cells in decreasing
/// cost order (ties: lower enumeration index first) each go to the
/// currently lightest shard (ties: lowest shard) — and returns shard
/// `index`'s cells sorted back into enumeration order. The classic LPT
/// guarantee (max shard load <= mean load + max single cost) keeps
/// heavy-tailed sweeps like general_bound from serialising on one
/// unlucky round-robin shard. Every shard calling this with the same
/// costs sees the same disjoint, covering partition.
std::vector<std::size_t> weighted_shard_slice(
    const std::vector<std::uint64_t>& costs, int index, int count);

/// All `count` weighted slices at once (the partition weighted_shard_slice
/// indexes into): element i is shard i+1's slice. The supervisor uses
/// this to set up every shard with one LPT pass instead of k.
std::vector<std::vector<std::size_t>> weighted_shard_partition(
    const std::vector<std::uint64_t>& costs, int count);

}  // namespace cobra::runner
