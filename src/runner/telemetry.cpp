#include "runner/telemetry.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "runner/journal.hpp"
#include "runner/layout.hpp"
#include "runner/sweep.hpp"
#include "util/assert.hpp"

namespace cobra::runner {

namespace {

namespace fs = std::filesystem;

/// Strict full-token signed parse for status-file fields (pids may be -1).
std::int64_t parse_i64_field(const std::string& token, const char* field,
                             const std::string& path, std::size_t line_no) {
  char* end = nullptr;
  const std::int64_t value = std::strtoll(token.c_str(), &end, 10);
  COBRA_CHECK_MSG(!token.empty() && end == token.c_str() + token.size(),
                  path << " line " << line_no << ": " << field
                       << " is not a number: '" << token << "'");
  return value;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (;;) {
    const auto tab = line.find('\t', start);
    fields.push_back(line.substr(start, tab - start));
    if (tab == std::string::npos) return fields;
    start = tab + 1;
  }
}

/// Atomic rewrite shared by the sidecar compactor and the status writer:
/// a reader never observes a torn file, only the old or the new one.
void write_atomically(const std::string& path, const std::string& content) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc | std::ios::binary);
    COBRA_CHECK_MSG(out.good(), "cannot write " << tmp);
    out << content;
    out.flush();
    COBRA_CHECK_MSG(out.good(), "failed writing " << tmp);
  }
  std::error_code ec;
  fs::rename(tmp, path, ec);
  COBRA_CHECK_MSG(!ec,
                  "cannot rename " << tmp << " -> " << path << ": "
                                   << ec.message());
}

}  // namespace

std::string record_to_jsonl(const CellMetricsRecord& record) {
  std::ostringstream os;
  os << "{\"v\":" << kMetricsSidecarVersion
     << ",\"cell\":" << util::json_quote(record.cell_id)
     << ",\"mode\":" << util::json_quote(record.mode)
     << ",\"wall_us\":" << record.wall_us;
  if (!record.snapshot.empty())
    os << ",\"metrics\":" << util::snapshot_to_json(record.snapshot);
  if (!record.rounds.empty()) {
    os << ",\"rounds\":[";
    for (std::size_t i = 0; i < record.rounds.size(); ++i) {
      const core::RoundStat& r = record.rounds[i];
      os << (i ? "," : "") << '[' << r.processes << ',' << r.frontier << ','
         << r.newly << ',' << r.dense << ']';
    }
    os << ']';
  }
  os << '}';
  return os.str();
}

CellMetricsRecord record_from_jsonl(std::string_view line) {
  const util::JsonValue doc = util::parse_json(line);
  COBRA_CHECK_MSG(doc.type == util::JsonValue::Type::kObject,
                  "metrics sidecar line is not a JSON object");
  COBRA_CHECK_MSG(doc.uint_or("v", 0) == kMetricsSidecarVersion,
                  "metrics sidecar line has unsupported version "
                      << doc.uint_or("v", 0) << " (expected "
                      << kMetricsSidecarVersion << ")");
  CellMetricsRecord record;
  const util::JsonValue* cell = doc.find("cell");
  COBRA_CHECK_MSG(cell != nullptr &&
                      cell->type == util::JsonValue::Type::kString,
                  "metrics sidecar line lacks a \"cell\" id");
  record.cell_id = cell->text;
  if (const util::JsonValue* mode = doc.find("mode");
      mode != nullptr && mode->type == util::JsonValue::Type::kString)
    record.mode = mode->text;
  record.wall_us = doc.uint_or("wall_us", 0);
  if (const util::JsonValue* metrics = doc.find("metrics");
      metrics != nullptr)
    record.snapshot = util::snapshot_from_json_value(*metrics);
  if (const util::JsonValue* rounds = doc.find("rounds");
      rounds != nullptr) {
    COBRA_CHECK_MSG(rounds->type == util::JsonValue::Type::kArray,
                    "metrics sidecar \"rounds\" is not an array");
    record.rounds.reserve(rounds->array.size());
    for (const util::JsonValue& entry : rounds->array) {
      COBRA_CHECK_MSG(entry.type == util::JsonValue::Type::kArray &&
                          entry.array.size() == 4,
                      "metrics sidecar round entry is not a 4-tuple");
      core::RoundStat stat;
      stat.processes = entry.array[0].number;
      stat.frontier = entry.array[1].number;
      stat.newly = entry.array[2].number;
      stat.dense = entry.array[3].number;
      record.rounds.push_back(stat);
    }
  }
  return record;
}

std::vector<CellMetricsRecord> read_metrics_sidecar(
    const std::string& path) {
  std::vector<CellMetricsRecord> records;
  std::ifstream in(path);
  if (!in.good()) return records;  // metrics-off runs write no sidecar
  std::string line;
  std::size_t line_no = 0;
  std::unordered_map<std::string, std::size_t> last;  // cell -> index
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    CellMetricsRecord record;
    try {
      record = record_from_jsonl(line);
    } catch (const util::CheckError& e) {
      COBRA_CHECK_MSG(false,
                      path << " line " << line_no << ": " << e.what());
    }
    const auto it = last.find(record.cell_id);
    if (it != last.end()) {
      // A crash between the sidecar append and the journal line made the
      // resumed run re-run (and re-append) the cell: last record wins.
      records[it->second] = std::move(record);
    } else {
      last.emplace(record.cell_id, records.size());
      records.push_back(std::move(record));
    }
  }
  return records;
}

void write_metrics_sidecar(const std::string& path,
                           const std::vector<CellMetricsRecord>& records) {
  std::ostringstream os;
  for (const CellMetricsRecord& record : records)
    os << record_to_jsonl(record) << '\n';
  write_atomically(path, os.str());
}

void append_metrics_record(const std::string& path,
                           const CellMetricsRecord& record) {
  std::ofstream out(path, std::ios::app | std::ios::binary);
  COBRA_CHECK_MSG(out.good(), "cannot append to metrics sidecar " << path);
  out << record_to_jsonl(record) << '\n';
  out.flush();
  COBRA_CHECK_MSG(out.good(), "failed writing metrics sidecar " << path);
}

std::vector<CellMetricsRecord> order_records(
    std::vector<CellMetricsRecord> records,
    const std::vector<std::string>& cell_order) {
  std::unordered_map<std::string, std::size_t> rank;
  rank.reserve(cell_order.size());
  for (std::size_t i = 0; i < cell_order.size(); ++i)
    rank.emplace(cell_order[i], i);
  // Last record per cell wins (mirrors read_metrics_sidecar, for callers
  // concatenating several sidecars), unknown cells drop.
  std::unordered_map<std::string, std::size_t> last;
  std::vector<CellMetricsRecord> kept;
  for (CellMetricsRecord& record : records) {
    if (rank.find(record.cell_id) == rank.end()) continue;
    const auto it = last.find(record.cell_id);
    if (it != last.end()) {
      kept[it->second] = std::move(record);
    } else {
      last.emplace(record.cell_id, kept.size());
      kept.push_back(std::move(record));
    }
  }
  std::sort(kept.begin(), kept.end(),
            [&](const CellMetricsRecord& a, const CellMetricsRecord& b) {
              return rank.at(a.cell_id) < rank.at(b.cell_id);
            });
  return kept;
}

void write_sweep_status(const std::string& path,
                        const SweepStatus& status) {
  std::ostringstream os;
  os << "cobra-sweep-status\tv1\n";
  os << "run\t" << status.experiment << '\t' << status.shard_count << '\n';
  for (const ShardStatus& shard : status.shards) {
    os << "shard\t" << shard.index << '\t' << shard.pid << '\t'
       << shard.restarts << '\t' << shard.wedges << '\t' << shard.state
       << '\t' << shard.cells_done << '\t' << shard.cells_total << '\n';
  }
  write_atomically(path, os.str());
}

std::optional<SweepStatus> read_sweep_status(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return std::nullopt;
  std::string line;
  COBRA_CHECK_MSG(std::getline(in, line) && line == "cobra-sweep-status\tv1",
                  path << " line 1: not a cobra-sweep-status v1 file");
  SweepStatus status;
  std::size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_tabs(line);
    if (fields[0] == "run") {
      COBRA_CHECK_MSG(fields.size() == 3,
                      path << " line " << line_no << ": malformed run line");
      status.experiment = fields[1];
      status.shard_count = static_cast<int>(
          parse_i64_field(fields[2], "shard count", path, line_no));
    } else if (fields[0] == "shard") {
      COBRA_CHECK_MSG(fields.size() == 8,
                      path << " line " << line_no
                           << ": malformed shard line");
      ShardStatus shard;
      shard.index = static_cast<int>(
          parse_i64_field(fields[1], "shard index", path, line_no));
      shard.pid = parse_i64_field(fields[2], "pid", path, line_no);
      shard.restarts = static_cast<int>(
          parse_i64_field(fields[3], "restarts", path, line_no));
      shard.wedges = static_cast<int>(
          parse_i64_field(fields[4], "wedges", path, line_no));
      shard.state = fields[5];
      shard.cells_done =
          parse_u64_field(fields[6], "cells done", path, line_no);
      shard.cells_total =
          parse_u64_field(fields[7], "cells total", path, line_no);
      status.shards.push_back(std::move(shard));
    } else {
      COBRA_CHECK_MSG(false, path << " line " << line_no
                                  << ": unknown record '" << fields[0]
                                  << "'");
    }
  }
  return status;
}

std::string last_journal_cell(const std::string& journal_path) {
  std::ifstream in(journal_path);
  if (!in.good()) return "";
  std::string line;
  std::string last;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab == std::string::npos) continue;
    const std::string kind = line.substr(0, tab);
    if (kind != "heartbeat" && kind != "cell") continue;
    const auto next = line.find('\t', tab + 1);
    last = line.substr(tab + 1, next - tab - 1);
  }
  return last;
}

std::size_t render_fleet_status(const std::string& out_dir,
                                std::ostream& out) {
  const auto runs = layout::list(out_dir, layout::FileKind::kJournal);
  for (const auto& [experiment, journals] : runs) {
    const std::optional<SweepStatus> status =
        read_sweep_status(layout::sweep_status(out_dir, experiment));
    // Mixed shard counts (a stale 1of1 beside a sweep) render the larger
    // fleet; the merge rejects such directories loudly, the viewer just
    // shows what is there.
    const int shard_count = journals.back().shard_count;

    // Completed cells and their costs, per shard and in total.
    std::unordered_set<std::string> completed;
    std::size_t done_total = 0;
    std::uint64_t spent_us = 0;
    struct ShardView {
      int index = 0;
      std::size_t done = 0;
      std::string last_cell;
    };
    std::vector<ShardView> shards;
    for (const layout::ShardFile& journal : journals) {
      const auto [header, entries] = Journal::read(journal.path);
      ShardView view;
      view.index = journal.shard_index;
      view.done = entries.size();
      view.last_cell = last_journal_cell(journal.path);
      done_total += entries.size();
      for (const JournalEntry& entry : entries) {
        completed.insert(entry.cell_id);
        spent_us += entry.wall_us;
      }
      shards.push_back(std::move(view));
    }

    // ETA from the archived cost model: the summed cost of every cell
    // the model knows that no journal has completed yet, split across
    // the shards still working.
    std::uint64_t remaining_us = 0;
    bool have_model = false;
    std::size_t cells_known = 0;
    const std::string costs = layout::costs(out_dir, experiment);
    if (fs::exists(costs)) {
      have_model = true;
      for (const auto& [cell, wall_us] : read_costs_file(costs)) {
        ++cells_known;
        if (completed.find(cell) == completed.end())
          remaining_us += wall_us;
      }
    }

    std::size_t total_cells = 0;
    for (const ShardView& view : shards) {
      std::size_t shard_total = 0;
      if (status) {
        for (const ShardStatus& s : status->shards)
          if (s.index == view.index) shard_total = s.cells_total;
      }
      total_cells += shard_total;
    }
    if (total_cells == 0 && have_model) total_cells = cells_known;

    std::size_t active = 0;
    for (const ShardView& view : shards) {
      std::size_t shard_total = 0;
      if (status) {
        for (const ShardStatus& s : status->shards)
          if (s.index == view.index) shard_total = s.cells_total;
      }
      if (shard_total == 0 || view.done < shard_total) ++active;
    }
    if (active == 0) active = 1;

    out << experiment << ": " << done_total;
    if (total_cells > 0) {
      out << "/" << total_cells << " cells ("
          << (100 * done_total / std::max<std::size_t>(total_cells, 1))
          << "%)";
    } else {
      out << " cells done";
    }
    out << ", " << journals.size() << " shard"
        << (journals.size() == 1 ? "" : "s")
        << ", spent " << format_wall_time(spent_us);
    if (have_model) {
      if (remaining_us == 0) {
        out << ", complete";
      } else {
        out << ", ETA ~"
            << format_wall_time(remaining_us /
                                static_cast<std::uint64_t>(active));
      }
    }
    out << '\n';

    for (const ShardView& view : shards) {
      out << "  shard " << view.index << "/" << shard_count << ": "
          << view.done;
      const ShardStatus* s = nullptr;
      if (status) {
        for (const ShardStatus& candidate : status->shards)
          if (candidate.index == view.index) s = &candidate;
      }
      if (s != nullptr && s->cells_total > 0) out << "/" << s->cells_total;
      out << " cells";
      if (s != nullptr) {
        out << ", " << s->state;
        if (s->pid > 0 && s->state == "running")
          out << " (pid " << s->pid << ")";
        if (s->restarts > 0) {
          out << ", " << s->restarts << " respawn"
              << (s->restarts == 1 ? "" : "s");
          if (s->wedges > 0)
            out << " (" << s->wedges << " wedge"
                << (s->wedges == 1 ? "" : "s") << ")";
        }
      }
      if (!view.last_cell.empty()) out << ", last: " << view.last_cell;
      out << '\n';
    }
  }
  return runs.size();
}

namespace {

/// Right-pads or left-pads `text` to `width`.
std::string pad(const std::string& text, std::size_t width, bool left) {
  if (text.size() >= width) return text;
  const std::string fill(width - text.size(), ' ');
  return left ? text + fill : fill + text;
}

/// Prints `rows` (first row = header) with aligned columns: the first
/// column left-aligned, the rest right-aligned.
void print_table(const std::vector<std::vector<std::string>>& rows,
                 std::ostream& out) {
  std::vector<std::size_t> widths;
  for (const auto& row : rows) {
    if (widths.size() < row.size()) widths.resize(row.size(), 0);
    for (std::size_t c = 0; c < row.size(); ++c)
      widths[c] = std::max(widths[c], row[c].size());
  }
  for (const auto& row : rows) {
    out << "  ";
    for (std::size_t c = 0; c < row.size(); ++c)
      out << (c ? "  " : "") << pad(row[c], widths[c], c == 0);
    out << '\n';
  }
}

}  // namespace

std::size_t render_metrics_report(const std::string& out_dir,
                                  std::ostream& out) {
  // The canonical sidecar where there is one (merged/compacted), shard
  // fragments only for experiments that have none yet (mid-sweep).
  std::vector<std::string> paths;
  for (const auto& [experiment, sidecars] :
       layout::list(out_dir, layout::FileKind::kSidecar)) {
    for (const layout::ShardFile& sidecar : sidecars) {
      paths.push_back(sidecar.path);
      if (sidecar.canonical) break;  // sorted first in its group
    }
  }
  std::sort(paths.begin(), paths.end());

  // The headline kernel columns; everything else folds into the summary
  // line below the table.
  struct Column {
    const char* header;
    const char* metric;
  };
  static constexpr Column kColumns[] = {
      {"rounds", "kernel.rounds"},
      {"dense", "kernel.rounds_dense"},
      {"switches", "kernel.mode_switches"},
      {"peak-frontier", "kernel.frontier_peak"},
      {"first-visits", "kernel.first_visits"},
      {"emissions", "kernel.emissions"},
      {"dedup", "kernel.dedup_hits"},
  };

  std::size_t rendered = 0;
  for (const std::string& path : paths) {
    const std::vector<CellMetricsRecord> records =
        read_metrics_sidecar(path);
    if (records.empty()) continue;
    ++rendered;
    out << fs::path(path).filename().string() << ": " << records.size()
        << " cells (mode " << records.front().mode << ")\n";

    std::vector<std::vector<std::string>> rows;
    std::vector<std::string> header{"cell", "wall"};
    for (const Column& column : kColumns) header.push_back(column.header);
    rows.push_back(std::move(header));

    util::MetricsSnapshot totals;
    std::uint64_t wall_total = 0;
    std::uint64_t rounds_recorded = 0;
    for (const CellMetricsRecord& record : records) {
      std::vector<std::string> row{record.cell_id,
                                   format_wall_time(record.wall_us)};
      for (const Column& column : kColumns)
        row.push_back(
            std::to_string(record.snapshot.value_of(column.metric)));
      rows.push_back(std::move(row));
      totals = util::merge(totals, record.snapshot);
      wall_total += record.wall_us;
      rounds_recorded += record.rounds.size();
    }
    std::vector<std::string> total_row{"(total)",
                                       format_wall_time(wall_total)};
    for (const Column& column : kColumns)
      total_row.push_back(std::to_string(totals.value_of(column.metric)));
    rows.push_back(std::move(total_row));
    print_table(rows, out);

    // Everything the table does not show, folded across all cells.
    std::ostringstream others;
    for (const util::MetricValue& value : totals.values) {
      if (value.kind == util::MetricKind::kHistogram) continue;
      bool shown = false;
      for (const Column& column : kColumns)
        if (value.name == column.metric) shown = true;
      if (shown || value.name == "kernel.frontier_sum" ||
          value.name == "kernel.draw_streams" ||
          value.name == "kernel.words_scanned" ||
          value.name == "kernel.merged_words")
        continue;
      others << ' ' << value.name << '=' << value.value;
    }
    if (!others.str().empty()) out << "  other:" << others.str() << '\n';
    if (rounds_recorded > 0)
      out << "  per-round trajectories: " << rounds_recorded
          << " rounds archived across " << records.size() << " cells\n";
  }
  return rendered;
}

}  // namespace cobra::runner
