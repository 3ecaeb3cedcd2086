#include "runner/sweep.hpp"

#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <iterator>
#include <memory>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "core/metrics.hpp"
#include "runner/journal.hpp"
#include "runner/layout.hpp"
#include "runner/telemetry.hpp"
#include "sim/monte_carlo.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"

namespace cobra::runner {

namespace {

std::vector<CellDef> enumerate_cells(const ExperimentDef& def) {
  std::vector<CellDef> cells = def.cells();
  COBRA_CHECK_MSG(!cells.empty(), def.name << " enumerated no cells");
  for (std::size_t i = 0; i < cells.size(); ++i) {
    for (std::size_t j = i + 1; j < cells.size(); ++j) {
      COBRA_CHECK_MSG(cells[i].id != cells[j].id,
                      def.name << " cell id not unique: " << cells[i].id);
    }
  }
  return cells;
}

/// Journaled entries must replay the slice in order (the sweep always
/// walks its slice front to back), so a valid journal is a prefix of the
/// slice. Anything else means the enumeration changed under the journal.
void check_journal_prefix(const ExperimentDef& def,
                          const std::vector<CellDef>& cells,
                          const std::vector<std::size_t>& slice,
                          const std::vector<JournalEntry>& entries,
                          const std::string& journal_path) {
  COBRA_CHECK_MSG(entries.size() <= slice.size(),
                  journal_path << " lists more cells than the slice has");
  for (std::size_t j = 0; j < entries.size(); ++j) {
    COBRA_CHECK_MSG(
        entries[j].cell_id == cells[slice[j]].id,
        journal_path << " does not match the current enumeration of "
                     << def.name << " (journaled '" << entries[j].cell_id
                     << "' where '" << cells[slice[j]].id
                     << "' was expected) — was it written at a different "
                     << "scale or with a different --costs model?");
  }
}

/// Rows grouped by the cell that produced them, one vector per table:
/// the unit the console renders.
struct CellRows {
  std::string group;
  std::vector<std::string> notes;
  std::vector<std::vector<CellRow>> tables;  // [table][row]
};

/// Prints the classic per-experiment console output: per table a banner
/// that pins every knob affecting the bytes, the aligned table with rules
/// between cell groups, and the notes under the last table.
void render_console(const ExperimentDef& def,
                    const std::vector<CellRows>& cells,
                    const std::vector<std::string>& extra_notes) {
  for (std::size_t t = 0; t < def.tables.size(); ++t) {
    const TableDef& table = def.tables[t];
    util::Table console(table.columns);
    std::string last_group;
    bool first = true;
    for (const CellRows& cell : cells) {
      if (cell.tables[t].empty()) continue;
      if (!first && cell.group != last_group) console.rule();
      first = false;
      last_group = cell.group;
      for (const CellRow& row : cell.tables[t]) {
        console.row();
        for (const CellValue& value : row) console.add(value.console_text);
      }
    }
    std::cout << "\n=== " << table.id << " ===\n"
              << table.title << "\n"
              << "seed=" << util::global_seed() << " scale=" << util::scale()
              << " workers=" << sim::worker_count() << "\n\n";
    console.print(std::cout);
    if (t + 1 == def.tables.size()) {
      for (const CellRows& cell : cells)
        for (const std::string& n : cell.notes)
          std::cout << "  * " << n << '\n';
      for (const std::string& n : extra_notes)
        std::cout << "  * " << n << '\n';
    }
  }
}

/// Cuts the data rows of table `t`'s CSV at `path` into one chunk per
/// journal entry — chunk j holds the rows_per_table[t] rows entry j's
/// cell contributed — and checks that the entries account for every row.
/// The merge reorders shard fragments by these chunks; a resumed run's
/// console replays the canonical CSV through them.
std::vector<std::vector<std::vector<std::string>>> chunk_rows(
    const std::string& path, const TableDef& table, std::size_t t,
    const std::vector<JournalEntry>& entries) {
  util::CsvTable csv = util::read_csv(path);
  COBRA_CHECK_MSG(csv.header == table.columns, path << ": header mismatch");
  std::vector<std::vector<std::vector<std::string>>> chunks;
  chunks.reserve(entries.size());
  std::size_t cursor = 0;
  for (const JournalEntry& entry : entries) {
    COBRA_CHECK_MSG(t < entry.rows_per_table.size(),
                    path << ": journal entry '" << entry.cell_id
                         << "' lacks a row count for table " << t);
    const std::size_t rows = entry.rows_per_table[t];
    COBRA_CHECK_MSG(cursor + rows <= csv.num_rows(),
                    path << " holds fewer rows than its journal records");
    const auto begin = csv.rows.begin() + static_cast<std::ptrdiff_t>(cursor);
    chunks.emplace_back(
        std::make_move_iterator(begin),
        std::make_move_iterator(begin + static_cast<std::ptrdiff_t>(rows)));
    cursor += rows;
  }
  COBRA_CHECK_MSG(cursor == csv.num_rows(),
                  path << " holds rows no journal entry accounts for");
  return chunks;
}

/// The end of every complete run, unsharded or merged: archives the cost
/// model and the canonical metrics sidecar, both in cell-enumeration
/// order. `entries` holds every cell's journal entry in that order (for
/// shard 1/1 journal order already is enumeration order); `records` the
/// sidecar records of every shard in any order — crash duplicates
/// collapse, last record wins. Returns the sidecar records written (0:
/// metrics were off, no sidecar).
std::size_t finalise_archive(const std::string& out_dir,
                             const std::string& experiment,
                             const std::vector<JournalEntry>& entries,
                             std::vector<CellMetricsRecord> records) {
  // Per-cell wall times: a later `--costs` run balances its shard slices
  // with them.
  write_costs_file(layout::costs(out_dir, experiment), entries);
  if (records.empty()) return 0;
  std::vector<std::string> order;
  order.reserve(entries.size());
  for (const JournalEntry& entry : entries) order.push_back(entry.cell_id);
  records = order_records(std::move(records), order);
  write_metrics_sidecar(layout::sidecar(out_dir, experiment, 1, 1), records);
  return records.size();
}

/// Runs def.summarize over the canonical CSVs (all cells present) and
/// returns computed notes followed by the experiment's fixed notes.
std::vector<std::string> collect_summary_notes(const ExperimentDef& def,
                                               const std::string& out_dir) {
  std::vector<std::string> notes;
  if (def.summarize) {
    std::vector<util::CsvTable> tables;
    tables.reserve(def.tables.size());
    for (const TableDef& table : def.tables)
      tables.push_back(
          util::read_csv(layout::fragment(out_dir, table.id, 1, 1)));
    notes = def.summarize(tables);
  }
  notes.insert(notes.end(), def.notes.begin(), def.notes.end());
  return notes;
}

/// Truncates `path` back to its first `keep_rows` data rows. Used when a
/// crash left rows of an unjournaled cell at the fragment's tail.
void truncate_fragment(const std::string& path,
                       const std::vector<std::string>& columns,
                       std::size_t keep_rows) {
  util::CsvTable table = util::read_csv(path);
  // A worker killed before its first flush leaves a 0-byte fragment (the
  // CsvWriter buffers the header until the first cell is flushed). With
  // no rows journaled that is consistent: the append-mode reopen sees an
  // empty file and rewrites the header.
  if (table.header.empty() && table.num_rows() == 0) {
    COBRA_CHECK_MSG(keep_rows == 0,
                    path << " is empty but its journal records "
                         << keep_rows << " rows — the fragment was "
                         << "modified; delete the run directory and "
                         << "restart");
    return;
  }
  COBRA_CHECK_MSG(table.header == columns,
                  path << ": fragment header mismatch");
  COBRA_CHECK_MSG(table.num_rows() >= keep_rows,
                  path << " holds fewer rows than its journal records — "
                       << "the fragment was modified; delete the run "
                       << "directory and restart");
  if (table.num_rows() == keep_rows) return;
  util::CsvWriter writer(path, columns);
  for (std::size_t r = 0; r < keep_rows; ++r) writer.add_row(table.rows[r]);
  writer.close();
}

}  // namespace

std::string format_wall_time(std::uint64_t wall_us) {
  std::ostringstream os;
  const auto with_unit = [&](double value, const char* unit) {
    // Fixed notation, ~3 significant digits (never scientific).
    os << std::fixed
       << std::setprecision(value < 10 ? 2 : (value < 100 ? 1 : 0)) << value
       << ' ' << unit;
  };
  if (wall_us < 1000) {
    os << wall_us << " µs";
  } else if (wall_us < 1000 * 1000) {
    with_unit(static_cast<double>(wall_us) / 1e3, "ms");
  } else if (wall_us < 60ull * 1000 * 1000) {
    with_unit(static_cast<double>(wall_us) / 1e6, "s");
  } else {
    with_unit(static_cast<double>(wall_us) / 60e6, "min");
  }
  return os.str();
}

void write_costs_file(const std::string& path,
                      const std::vector<JournalEntry>& entries) {
  std::ofstream out(path, std::ios::trunc);
  COBRA_CHECK_MSG(out.good(), "cannot write cost model " << path);
  out << "cobra-costs\tv1\n";
  for (const JournalEntry& entry : entries)
    out << "cell\t" << entry.cell_id << '\t' << entry.wall_us << '\n';
  out.flush();
  COBRA_CHECK_MSG(out.good(), "failed writing cost model " << path);
}

std::map<std::string, std::uint64_t> read_costs_file(
    const std::string& path) {
  std::ifstream in(path);
  COBRA_CHECK_MSG(in.good(), "cannot read cost model " << path);
  std::string line;
  COBRA_CHECK_MSG(std::getline(in, line) && line == "cobra-costs\tv1",
                  path << " line 1: not a cobra-costs v1 file");
  std::map<std::string, std::uint64_t> costs;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto tab1 = line.find('\t');
    const auto tab2 =
        tab1 == std::string::npos ? tab1 : line.find('\t', tab1 + 1);
    COBRA_CHECK_MSG(tab2 != std::string::npos &&
                        line.compare(0, tab1, "cell") == 0,
                    path << " line " << line_no
                         << ": malformed cost record '" << line << "'");
    const std::string id = line.substr(tab1 + 1, tab2 - tab1 - 1);
    const std::uint64_t wall_us =
        parse_u64_field(line.substr(tab2 + 1), "wall time", path, line_no);
    COBRA_CHECK_MSG(costs.emplace(id, wall_us).second,
                    path << " line " << line_no << ": duplicate cell '"
                         << id << "'");
  }
  return costs;
}

std::vector<std::uint64_t> cell_costs(const std::vector<CellDef>& cells,
                                      const std::string& costs_path) {
  // No model (or none archived yet): empty — the caller slices round
  // robin. A file that exists but is corrupt fails loudly in
  // read_costs_file.
  if (costs_path.empty() || !std::filesystem::exists(costs_path))
    return {};
  const auto costs = read_costs_file(costs_path);
  std::vector<std::uint64_t> known;
  known.reserve(costs.size());
  for (const auto& [id, wall_us] : costs) known.push_back(wall_us);
  std::sort(known.begin(), known.end());
  // Cells the model does not know (the costs were archived at another
  // scale) default to the median known cost: deterministic, and neutral
  // under the heavy-tailed distributions the model exists for.
  const std::uint64_t fallback =
      known.empty() ? 1 : known[known.size() / 2];
  std::vector<std::uint64_t> per_cell(cells.size(), fallback);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const auto it = costs.find(cells[i].id);
    if (it != costs.end()) per_cell[i] = it->second;
  }
  return per_cell;
}

std::vector<std::vector<std::size_t>> partition_for(
    std::size_t num_cells, int count,
    const std::vector<std::uint64_t>& costs) {
  if (!costs.empty()) return weighted_shard_partition(costs, count);
  std::vector<std::vector<std::size_t>> partition;
  partition.reserve(static_cast<std::size_t>(count));
  for (int i = 1; i <= count; ++i)
    partition.push_back(shard_slice(num_cells, i, count));
  return partition;
}

std::vector<std::size_t> slice_for(const std::vector<CellDef>& cells,
                                   int index, int count,
                                   const std::string& costs_path) {
  const std::vector<std::uint64_t> costs = cell_costs(cells, costs_path);
  if (costs.empty()) return shard_slice(cells.size(), index, count);
  return weighted_shard_slice(costs, index, count);
}

SweepResult run_experiment(const ExperimentDef& def,
                           const SweepConfig& config) {
  COBRA_CHECK_MSG(config.shard_count >= 1 && config.shard_index >= 1 &&
                      config.shard_index <= config.shard_count,
                  "invalid shard " << config.shard_index << "/"
                                   << config.shard_count);

  const std::vector<CellDef> cells = enumerate_cells(def);
  const std::vector<std::size_t> slice = slice_for(
      cells, config.shard_index, config.shard_count, config.costs_path);

  // Fault injection for the supervisor's kill/reassign tests: when set,
  // the worker SIGKILLs itself after journaling this many cells — a
  // deterministic stand-in for a worker dying mid-shard.
  const std::int64_t kill_after_cells =
      util::env_int("COBRA_SWEEP_KILL_AFTER_CELLS", 0);

  const JournalHeader header{def.name, config.shard_index,
                             config.shard_count, util::global_seed(),
                             util::scale(), util::kernel_threads()};
  const std::string journal_path = layout::journal(
      config.out_dir, def.name, config.shard_index, config.shard_count);

  std::size_t skip = 0;
  bool fresh = true;
  std::unique_ptr<Journal> journal;
  if (config.resume && std::filesystem::exists(journal_path)) {
    fresh = false;
    journal = std::make_unique<Journal>(
        Journal::resume(journal_path, header));
    check_journal_prefix(def, cells, slice, journal->entries(),
                         journal_path);
    for (const JournalEntry& entry : journal->entries()) {
      COBRA_CHECK_MSG(entry.rows_per_table.size() == def.tables.size(),
                      journal_path << ": entry '" << entry.cell_id
                                   << "' records " << entry.rows_per_table.size()
                                   << " tables, expected "
                                   << def.tables.size());
    }
    skip = journal->entries().size();
    // Reconcile fragments with the journal: a torn tail (crash between a
    // cell's flush and its journal line) is cut off so the resumed run
    // re-executes that cell exactly once.
    for (std::size_t t = 0; t < def.tables.size(); ++t) {
      const std::string path = layout::fragment(
          config.out_dir, def.tables[t].id, config.shard_index,
          config.shard_count);
      const std::size_t expected = journal->journaled_rows(t);
      if (std::filesystem::exists(path)) {
        truncate_fragment(path, def.tables[t].columns, expected);
      } else {
        COBRA_CHECK_MSG(expected == 0,
                        path << " is missing but its journal records "
                             << expected << " rows");
      }
    }
  } else {
    // A fresh run (or --resume with nothing to resume) starts clean.
    journal =
        std::make_unique<Journal>(Journal::create(journal_path, header));
  }

  // Telemetry sidecar: one JSONL record per cell, appended write-ahead of
  // the journal line (a crash in between re-runs the cell and appends a
  // duplicate; readers keep the last record per cell). A fresh run clears
  // any stale sidecar; metrics-off runs write nothing.
  const util::MetricsMode metrics_mode = util::metrics_mode();
  const std::string sidecar_path = layout::sidecar(
      config.out_dir, def.name, config.shard_index, config.shard_count);
  if (fresh) {
    std::error_code ec;
    std::filesystem::remove(sidecar_path, ec);
  }
  if (metrics_mode != util::MetricsMode::kOff) {
    // Discard whatever accumulated before this slice (registry state is
    // process-wide), so the first cell's record is not polluted.
    core::drain_cell_metrics();
  }

  std::vector<std::unique_ptr<util::CsvWriter>> writers;
  for (const TableDef& table : def.tables) {
    writers.push_back(std::make_unique<util::CsvWriter>(
        layout::fragment(config.out_dir, table.id, config.shard_index,
                         config.shard_count),
        table.columns,
        fresh ? util::CsvWriter::Mode::kTruncate
              : util::CsvWriter::Mode::kAppend));
  }

  SweepResult result;
  result.cells_total = slice.size();
  result.cells_skipped = skip;

  std::vector<CellRows> executed;  // console replay on unsharded runs
  const bool keep_rows_in_memory =
      config.shard_count == 1 && config.console && skip == 0;

  for (std::size_t j = skip; j < slice.size(); ++j) {
    if (config.max_cells >= 0 &&
        result.cells_run >= static_cast<std::size_t>(config.max_cells)) {
      break;
    }
    const CellDef& cell = cells[slice[j]];
    if (config.log) {
      *config.log << "[" << (j + 1) << "/" << slice.size() << "] "
                  << def.name << "/" << cell.id << " ..." << std::flush;
    }
    // Liveness marker at cell start: the supervisor distinguishes a slow
    // worker (journal still grows at cell boundaries) from a wedged one.
    journal->heartbeat(cell.id);

    const auto cell_start = std::chrono::steady_clock::now();
    CellContext context(def.tables.size());
    cell.run(context);
    const auto cell_wall =
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - cell_start);

    JournalEntry entry;
    entry.cell_id = cell.id;
    entry.wall_us = static_cast<std::uint64_t>(cell_wall.count());
    for (std::size_t t = 0; t < def.tables.size(); ++t) {
      for (const CellRow& row : context.tables()[t]) {
        writers[t]->row();
        for (const CellValue& value : row) writers[t]->add(value.csv_text);
      }
      writers[t]->flush();
      entry.rows_per_table.push_back(context.rows_in_table(t));
    }
    if (metrics_mode != util::MetricsMode::kOff) {
      core::CellMetrics cell_metrics = core::drain_cell_metrics();
      CellMetricsRecord record;
      record.cell_id = cell.id;
      record.mode = util::metrics_mode_name(metrics_mode);
      record.wall_us = entry.wall_us;
      record.snapshot = std::move(cell_metrics.snapshot);
      record.rounds = std::move(cell_metrics.rounds);
      append_metrics_record(sidecar_path, record);
    }
    // Rows are durable before the journal line: a crash in between makes
    // the cell re-run on resume, and the reconciliation above drops the
    // orphaned rows first.
    journal->record(entry);
    ++result.cells_run;
    result.wall_us_run += entry.wall_us;
    if (kill_after_cells > 0 &&
        result.cells_run >= static_cast<std::size_t>(kill_after_cells)) {
      std::raise(SIGKILL);  // fault injection: die hard, journal intact
    }

    if (config.log) {
      std::size_t rows = 0;
      for (const auto& table : context.tables()) rows += table.size();
      *config.log << " done (" << rows << " rows, "
                  << format_wall_time(entry.wall_us) << ")\n";
      for (const std::string& n : context.notes())
        *config.log << "    note: " << n << '\n';
    }
    if (keep_rows_in_memory) {
      executed.push_back(CellRows{cell.group,
                                  context.notes(),
                                  context.tables()});
    }
  }
  result.cells_remaining =
      slice.size() - result.cells_skipped - result.cells_run;

  for (auto& writer : writers) writer->close();

  if (result.complete() && config.shard_count == 1) {
    finalise_archive(config.out_dir, def.name, journal->entries(),
                     read_metrics_sidecar(sidecar_path));
  }

  if (result.complete() && config.shard_count == 1 && config.console) {
    const std::vector<std::string> summary =
        collect_summary_notes(def, config.out_dir);
    if (keep_rows_in_memory) {
      render_console(def, executed, summary);
    } else {
      // Some rows were restored from the journal, so replay the archive:
      // journal order is enumeration order, and each entry records how
      // many rows its cell contributed per table. Cell notes are not
      // journaled, so warn rather than silently diverging from an
      // uninterrupted run's output.
      const std::vector<JournalEntry>& entries = journal->entries();
      std::vector<CellRows> replay(entries.size());
      for (std::size_t j = 0; j < entries.size(); ++j) {
        replay[j].group = cells[slice[j]].group;
        replay[j].tables.resize(def.tables.size());
      }
      for (std::size_t t = 0; t < def.tables.size(); ++t) {
        const auto chunks = chunk_rows(
            layout::fragment(config.out_dir, def.tables[t].id, 1, 1),
            def.tables[t], t, entries);
        for (std::size_t j = 0; j < chunks.size(); ++j) {
          for (const std::vector<std::string>& row : chunks[j]) {
            CellRow& replayed = replay[j].tables[t].emplace_back();
            for (const std::string& text : row)
              replayed.push_back(CellValue{text, text});
          }
        }
      }
      std::vector<std::string> notes = summary;
      if (result.cells_skipped > 0) {
        notes.push_back(
            "(resumed run: values shown at archive precision; per-cell "
            "notes from the " + std::to_string(result.cells_skipped) +
            " cells completed by earlier invocations appeared in their "
            "own run logs and are not repeated here)");
      }
      render_console(def, replay, notes);
    }
  } else if (config.log && result.complete() && config.shard_count > 1) {
    *config.log << def.name << " shard " << config.shard_index << "/"
                << config.shard_count
                << " complete; run `cobra merge " << def.name
                << " --out-dir " << config.out_dir
                << "` once all shards finished\n";
  }
  return result;
}

MergeResult merge_experiment(const ExperimentDef& def,
                             const std::string& out_dir, std::ostream* log) {
  COBRA_CHECK_MSG(std::filesystem::exists(out_dir),
                  "no such run directory: " << out_dir);
  const auto runs = layout::list(out_dir, layout::FileKind::kJournal);
  const auto run = runs.find(def.name);
  COBRA_CHECK_MSG(run != runs.end(),
                  "no journals for " << def.name << " under " << out_dir);
  // Sorted by shard count, then index: one count throughout, and shard s
  // at position s-1, or the directory does not hold one run.
  const std::vector<layout::ShardFile>& journals = run->second;
  const int shard_count = journals.front().shard_count;
  COBRA_CHECK_MSG(journals.back().shard_count == shard_count,
                  out_dir << " mixes journals of different shard counts for "
                          << def.name);
  std::vector<std::string> journal_paths;
  for (int i = 1; i <= shard_count; ++i) {
    COBRA_CHECK_MSG(static_cast<std::size_t>(i) <= journals.size() &&
                        journals[static_cast<std::size_t>(i) - 1]
                                .shard_index == i,
                    "shard " << i << "/" << shard_count << " of " << def.name
                             << " has no journal in " << out_dir);
    journal_paths.push_back(journals[static_cast<std::size_t>(i) - 1].path);
  }

  // All shards must come from one run configuration; adopt it (seed and
  // scale drive the enumeration we validate against).
  std::vector<std::vector<JournalEntry>> shard_entries;
  JournalHeader first_header;
  for (int s = 1; s <= shard_count; ++s) {
    auto [header, entries] =
        Journal::read(journal_paths[static_cast<std::size_t>(s) - 1]);
    if (s == 1) {
      first_header = header;
    } else {
      COBRA_CHECK_MSG(header.seed == first_header.seed &&
                          header.scale == first_header.scale,
                      def.name << " shards were run with different "
                               << "seed/scale; refusing to merge");
    }
    COBRA_CHECK_MSG(header.experiment == def.name &&
                        header.shard_index == s,
                    journal_paths[static_cast<std::size_t>(s) - 1]
                        << ": unexpected journal header");
    shard_entries.push_back(std::move(entries));
  }
  util::set_seed_override(first_header.seed);
  util::set_scale_override(first_header.scale);

  const std::vector<CellDef> cells = enumerate_cells(def);

  // Map each shard's journaled cells onto the global enumeration. Merge
  // is deliberately slicing-agnostic: round-robin shards, cost-weighted
  // shards and any future deterministic partition all merge identically,
  // because every journal names its cells and the fragments follow
  // journal order. What must hold: each shard walks the enumeration
  // monotonically, and the shards together cover every cell exactly once.
  std::unordered_map<std::string, std::size_t> index_of;
  for (std::size_t i = 0; i < cells.size(); ++i)
    index_of.emplace(cells[i].id, i);
  std::vector<int> owner(cells.size(), 0);  // journaling shard; 0 = none
  // entry_cells[s-1][j]: global cell index of shard s's j-th entry.
  std::vector<std::vector<std::size_t>> entry_cells(
      static_cast<std::size_t>(shard_count));
  for (int s = 1; s <= shard_count; ++s) {
    const auto& entries = shard_entries[static_cast<std::size_t>(s) - 1];
    const std::string& jpath =
        journal_paths[static_cast<std::size_t>(s) - 1];
    auto& mapped = entry_cells[static_cast<std::size_t>(s) - 1];
    for (const JournalEntry& entry : entries) {
      const auto it = index_of.find(entry.cell_id);
      COBRA_CHECK_MSG(it != index_of.end(),
                      jpath << " journals unknown cell '" << entry.cell_id
                            << "' — was it written at a different scale?");
      COBRA_CHECK_MSG(mapped.empty() || it->second > mapped.back(),
                      jpath << " journals '" << entry.cell_id
                            << "' out of enumeration order — was it "
                            << "written at a different scale or with a "
                            << "different --costs model?");
      COBRA_CHECK_MSG(owner[it->second] == 0,
                      def.name << " cell '" << entry.cell_id
                               << "' is journaled by both shard "
                               << owner[it->second] << " and shard " << s
                               << " — the shards were run with different "
                               << "slicings; refusing to merge");
      owner[it->second] = s;
      mapped.push_back(it->second);
    }
  }
  {
    std::size_t missing = 0;
    std::string first_missing;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (owner[i] != 0) continue;
      if (missing == 0) first_missing = cells[i].id;
      ++missing;
    }
    COBRA_CHECK_MSG(missing == 0,
                    def.name << " is incomplete: " << missing << " of "
                             << cells.size()
                             << " cells are journaled by no shard (first "
                             << "missing: '" << first_missing
                             << "'); resume the shards before merging");
  }

  MergeResult result;
  result.shard_count = shard_count;

  for (std::size_t t = 0; t < def.tables.size(); ++t) {
    const TableDef& table = def.tables[t];
    // chunks[global cell index] = that cell's rows, cut out of its shard's
    // fragment via the shard's journal.
    std::vector<std::vector<std::vector<std::string>>> chunks(cells.size());
    for (int s = 1; s <= shard_count; ++s) {
      auto shard_chunks = chunk_rows(
          layout::fragment(out_dir, table.id, s, shard_count), table, t,
          shard_entries[static_cast<std::size_t>(s) - 1]);
      const auto& mapped = entry_cells[static_cast<std::size_t>(s) - 1];
      for (std::size_t j = 0; j < shard_chunks.size(); ++j)
        chunks[mapped[j]] = std::move(shard_chunks[j]);
    }

    // Emit in global enumeration order: byte-identical to an unsharded
    // run at the same seed/scale.
    const std::string canonical = layout::fragment(out_dir, table.id, 1, 1);
    util::CsvWriter writer(canonical, table.columns);
    std::size_t rows = 0;
    for (const auto& chunk : chunks) {
      for (const auto& row : chunk) {
        writer.add_row(row);
        ++rows;
      }
    }
    writer.close();
    result.rows_per_table.push_back(rows);
    if (log) {
      *log << "merged "
           << std::filesystem::path(canonical).filename().string() << ": "
           << rows << " rows from "
           << shard_count << " shards\n";
    }
  }

  // The cost model and the metrics sidecars finalise exactly like a
  // complete unsharded run's, from every shard's entries in enumeration
  // order and every shard's sidecar records (shards that ran with
  // metrics off contribute none).
  {
    std::vector<const JournalEntry*> by_cell(cells.size(), nullptr);
    std::vector<CellMetricsRecord> records;
    for (int s = 1; s <= shard_count; ++s) {
      const auto& entries = shard_entries[static_cast<std::size_t>(s) - 1];
      const auto& mapped = entry_cells[static_cast<std::size_t>(s) - 1];
      for (std::size_t j = 0; j < entries.size(); ++j)
        by_cell[mapped[j]] = &entries[j];
      std::vector<CellMetricsRecord> shard_records = read_metrics_sidecar(
          layout::sidecar(out_dir, def.name, s, shard_count));
      for (CellMetricsRecord& record : shard_records)
        records.push_back(std::move(record));
    }
    std::vector<JournalEntry> ordered;
    ordered.reserve(by_cell.size());
    for (const JournalEntry* entry : by_cell) ordered.push_back(*entry);
    const std::size_t merged_records =
        finalise_archive(out_dir, def.name, ordered, std::move(records));
    if (log && merged_records > 0) {
      *log << "merged "
           << std::filesystem::path(layout::sidecar(out_dir, def.name, 1, 1))
                  .filename()
                  .string()
           << ": " << merged_records << " cell records from " << shard_count
           << " shards\n";
    }
  }

  // Journal v4 cost summary: where the run's wall time went (the input
  // to cost-model shard balancing, see ROADMAP). Totals and the top-3
  // slowest cells are returned so `cobra sweep` can surface them in its
  // completion output.
  {
    std::vector<std::pair<std::uint64_t, const JournalEntry*>> by_cost;
    for (const auto& entries : shard_entries) {
      for (const JournalEntry& entry : entries) {
        result.total_wall_us += entry.wall_us;
        by_cost.emplace_back(entry.wall_us, &entry);
      }
    }
    result.cells = by_cost.size();
    std::sort(by_cost.begin(), by_cost.end(),
              [](const auto& a, const auto& b) { return a.first > b.first; });
    for (std::size_t i = 0; i < by_cost.size() && i < 3; ++i)
      result.slowest.emplace_back(by_cost[i].second->cell_id,
                                  by_cost[i].first);
  }
  if (log) {
    *log << "cell wall time: " << format_wall_time(result.total_wall_us)
         << " across " << result.cells << " cells";
    if (!result.slowest.empty() && result.total_wall_us > 0) {
      *log << "; slowest:";
      for (std::size_t i = 0; i < result.slowest.size(); ++i) {
        *log << (i ? ", " : " ") << result.slowest[i].first << " ("
             << format_wall_time(result.slowest[i].second) << ")";
      }
    }
    *log << '\n';
    for (const std::string& n : collect_summary_notes(def, out_dir))
      *log << "  * " << n << '\n';
  }
  return result;
}

}  // namespace cobra::runner
