// Run-level telemetry archives and the fleet status views built on them.
//
// Three file formats live here, all beside the shard journals in the run
// directory (runner/layout.hpp names and finds every one of them):
//
//   * `<experiment>.metrics.jsonl` (sharded:
//     `<experiment>.<i>of<k>.metrics.jsonl`) — the per-cell metrics
//     sidecar. One versioned JSON line per completed cell holding the
//     drained registry snapshot and, in rounds mode, the per-round
//     frontier trajectory. The journal stays the single source of truth
//     for resume/merge; the sidecar is write-ahead of the journal line,
//     so a cell re-run after a crash appends a duplicate record and
//     readers keep the *last* record per cell id.
//   * `<experiment>.sweep.status` — the supervisor's fleet snapshot
//     (per-shard pid / restarts / wedges / progress), rewritten
//     atomically (temp + rename) about once a second while a sweep runs.
//   * the existing `<experiment>.costs` model, which `cobra top` reads to
//     turn "cells remaining" into an ETA.
//
// `cobra top` renders journals + status files + cost models into a live
// progress view; `cobra report` renders archived metrics sidecars into
// per-cell comparison tables. Both work purely off the files — no
// experiment needs to be re-enumerated or re-run.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/metrics.hpp"
#include "util/metrics.hpp"

namespace cobra::runner {

/// Version tag of the metrics sidecar line format.
inline constexpr int kMetricsSidecarVersion = 1;

/// One cell's archived telemetry: everything a sidecar line holds.
struct CellMetricsRecord {
  std::string cell_id;          ///< CellDef::id (journal key)
  std::string mode;             ///< metrics mode the cell ran under
  std::uint64_t wall_us = 0;    ///< cell body wall time, microseconds
  util::MetricsSnapshot snapshot;       ///< drained registry snapshot
  std::vector<core::RoundStat> rounds;  ///< trajectory ("rounds" mode)
};

/// Serializes a record as one canonical JSONL line
/// (`{"v":1,"cell":...,"mode":...,"wall_us":...,"metrics":{...},
/// "rounds":[[processes,frontier,newly,dense],...]}`, empty sections
/// omitted, no trailing newline). Canonical form makes parse → re-emit
/// byte-identical.
std::string record_to_jsonl(const CellMetricsRecord& record);

/// Parses a sidecar line (CheckError on malformed input or an unknown
/// version).
CellMetricsRecord record_from_jsonl(std::string_view line);

/// Reads a sidecar file, keeping the last record per cell id (a crash
/// between the sidecar append and the journal line makes the resumed run
/// re-append the cell). Returns an empty vector when the file does not
/// exist — a run with metrics off writes no sidecar.
std::vector<CellMetricsRecord> read_metrics_sidecar(
    const std::string& path);

/// Rewrites `path` from `records`, one canonical line each, atomically
/// (temp + rename). Used to compact a finished run's sidecar into
/// journal order and by the merge.
void write_metrics_sidecar(const std::string& path,
                           const std::vector<CellMetricsRecord>& records);

/// Appends one record to `path` (created on first use) and flushes — the
/// per-cell write-ahead append of run_experiment.
void append_metrics_record(const std::string& path,
                           const CellMetricsRecord& record);

/// Orders `records` by position of their cell id in `cell_order`
/// (records of unknown cells are dropped — the enumeration changed), so
/// merged and compacted sidecars are deterministic regardless of which
/// shard ran which cell when.
std::vector<CellMetricsRecord> order_records(
    std::vector<CellMetricsRecord> records,
    const std::vector<std::string>& cell_order);

/// One shard's line in the supervisor status file.
struct ShardStatus {
  int index = 0;               ///< 1-based shard i of i/k
  long pid = -1;               ///< live worker pid; -1 when none
  int restarts = 0;            ///< respawns so far
  int wedges = 0;              ///< wedge kills so far (subset of restarts)
  std::string state;           ///< "running" | "complete" | "dead"
  std::size_t cells_done = 0;  ///< journaled cells
  std::size_t cells_total = 0; ///< slice size
};

/// The supervisor's fleet snapshot.
struct SweepStatus {
  std::string experiment;
  int shard_count = 0;
  std::vector<ShardStatus> shards;  ///< indexed shard-1
};

/// Atomically rewrites the status file (temp + rename, so `cobra top`
/// never reads a torn snapshot).
void write_sweep_status(const std::string& path, const SweepStatus& status);

/// Parses a status file; std::nullopt when it does not exist. Malformed
/// content fails loudly (CheckError) like every other manifest.
std::optional<SweepStatus> read_sweep_status(const std::string& path);

/// Renders the fleet view of every experiment with journals under
/// `out_dir`: per-shard cell progress (journals), worker liveness and
/// respawn/wedge counters (status file, when a sweep wrote one) and an
/// ETA from the archived `<experiment>.costs` model (when present).
/// Returns the number of experiments found — `cobra top` exits non-zero
/// when the directory holds no runs at all.
std::size_t render_fleet_status(const std::string& out_dir,
                                std::ostream& out);

/// Renders the archived metrics sidecars under `out_dir` as per-cell
/// comparison tables (`cobra report`): one table per experiment with the
/// headline kernel counters as columns, followed by a totals line and
/// the merged non-kernel counters. Returns the number of sidecars
/// rendered.
std::size_t render_metrics_report(const std::string& out_dir,
                                  std::ostream& out);

/// The cell id of the last heartbeat or completed-cell line of a journal
/// ("" when the journal is missing or holds neither) — what a worker was
/// last seen doing, for respawn logs and the fleet view.
std::string last_journal_cell(const std::string& journal_path);

}  // namespace cobra::runner
