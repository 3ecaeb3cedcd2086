// Sharded, resumable execution of registered experiments, plus the merge
// that reassembles shard fragments into the canonical archives and the
// per-cell cost model (`<experiment>.costs`) that weighted re-sharding
// feeds on.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "runner/journal.hpp"
#include "runner/registry.hpp"

namespace cobra::runner {

/// Execution parameters for one run_experiment() invocation.
struct SweepConfig {
  std::string out_dir = "bench_results";  ///< fragment/journal directory
  int shard_index = 1;                    ///< 1-based shard i of i/k
  int shard_count = 1;                    ///< shard count k
  bool resume = false;                    ///< continue an existing journal
  /// Stop after this many cells (negative: unlimited). The journal keeps
  /// the run resumable, so chunked execution composes with --resume.
  std::int64_t max_cells = -1;
  /// Render the console tables when an unsharded run completes.
  bool console = true;
  /// Progress log (one line per cell); nullptr silences it.
  std::ostream* log = nullptr;
  /// Cost-model file for weighted shard slicing ("" = round-robin). Every
  /// shard of one run — and every resume of a shard — must use the same
  /// file content, or the journal prefix check refuses to continue.
  std::string costs_path;
};

/// What one run_experiment() invocation did.
struct SweepResult {
  std::size_t cells_total = 0;      ///< cells in this shard's slice
  std::size_t cells_run = 0;        ///< executed by this invocation
  std::size_t cells_skipped = 0;    ///< journaled by a previous invocation
  std::size_t cells_remaining = 0;  ///< left behind by --max-cells
  /// Summed cell body wall time of the cells this invocation ran, µs.
  std::uint64_t wall_us_run = 0;
  /// True when the shard's slice is fully journaled.
  [[nodiscard]] bool complete() const { return cells_remaining == 0; }
};

/// Runs the shard's slice of `def`, journaling each completed cell and
/// appending its rows to the shard's CSV fragments. With resume enabled an
/// existing journal is continued: completed cells are skipped and torn
/// fragment tails (crash between flush and journal) are truncated first.
/// Unsharded complete runs write the canonical <table>.csv directly and,
/// when configured, print the familiar console tables.
SweepResult run_experiment(const ExperimentDef& def,
                           const SweepConfig& config);

/// What merge_experiment() reassembled.
struct MergeResult {
  int shard_count = 0;  ///< k of the merged run
  std::vector<std::size_t> rows_per_table;  ///< data rows per canonical CSV
  std::size_t cells = 0;            ///< journaled cells across all shards
  std::uint64_t total_wall_us = 0;  ///< summed cell body wall time, µs
  /// The (up to) three slowest cells, heaviest first: (cell id, wall µs).
  /// Callers surface these — humanized via format_wall_time — in sweep
  /// completion output.
  std::vector<std::pair<std::string, std::uint64_t>> slowest;
};

/// Discovers the shard journals of `def` under `out_dir`, validates that
/// they form one complete run (consistent k, shards 1..k, matching
/// seed/scale, every slice fully journaled), and stitches the fragments
/// into canonical <table>.csv files in cell-enumeration order — so the
/// merged archive is byte-identical to an unsharded run — then archives
/// the cost model and metrics sidecar exactly as a complete unsharded run
/// does. Prints the experiment's summary notes to `log`.
MergeResult merge_experiment(const ExperimentDef& def,
                             const std::string& out_dir, std::ostream* log);

/// Writes a cost-model file (layout::costs() names it; a completed
/// unsharded run and merge_experiment() write it, slice_for() reads it
/// back via --costs): a `cobra-costs\tv1` header followed by one
/// `cell\t<cell id>\t<wall µs>` line per journaled cell.
void write_costs_file(const std::string& path,
                      const std::vector<JournalEntry>& entries);

/// Parses a cost-model file into cell id → wall µs. Fails (CheckError)
/// with the path and line number on malformed content or duplicate ids.
std::map<std::string, std::uint64_t> read_costs_file(
    const std::string& path);

/// Per-cell costs (wall µs) aligned with `cells`, read from `costs_path`:
/// archived values where the model knows the cell, the median known cost
/// elsewhere (the model was archived at another scale). Empty when the
/// path is empty or the file does not exist yet — the round-robin
/// fallback. A file that exists but is corrupt fails loudly.
std::vector<std::uint64_t> cell_costs(const std::vector<CellDef>& cells,
                                      const std::string& costs_path);

/// All `count` slices over `num_cells` cells at once: the weighted LPT
/// partition when `costs` (a cell_costs() result) is non-empty, the
/// round-robin one otherwise. Element i is shard i+1's slice.
std::vector<std::vector<std::size_t>> partition_for(
    std::size_t num_cells, int count,
    const std::vector<std::uint64_t>& costs);

/// The slice of `cells` owned by shard `index`/`count`:
/// weighted_shard_slice over cell_costs() when a model is available,
/// classic round-robin shard_slice otherwise.
std::vector<std::size_t> slice_for(const std::vector<CellDef>& cells,
                                   int index, int count,
                                   const std::string& costs_path);

/// Human-readable wall time for journal cost summaries: "734 µs",
/// "12.3 ms", "4.56 s", "3.2 min".
std::string format_wall_time(std::uint64_t wall_us);

}  // namespace cobra::runner
