// Per-run checkpoint manifest for resumable sweeps.
//
// A shard's journal records the run parameters (experiment, shard, seed,
// scale — a resume with different parameters is refused) and one line per
// completed cell with the number of CSV rows the cell contributed to each
// table plus the cell's wall time. Row counts let the resume path truncate
// a torn fragment (a crash between "rows flushed" and "cell journaled")
// back to the last journaled cell, so a resumed run's output is
// byte-identical to an uninterrupted one. Wall times feed `cobra merge`'s
// cost summary and are the groundwork for cost-model shard balancing
// (ROADMAP): they never affect resume/merge validation.
//
// Format (tab-separated, one record per line; the trailing "ok" marker
// makes records self-delimiting, so a line torn by a crash mid-write is
// recognisably incomplete and treated as not journaled):
//   cobra-journal	v5
//   run	<experiment>	<shard>/<count>	<seed>	<scale>	<kernel threads>
//   heartbeat	<cell id>
//   cell	<cell id>	<rows table 0>[,<rows table 1>,...]	<wall µs>	ok
//
// "heartbeat" lines are liveness markers appended (and flushed) when a
// cell *starts*: the sweep supervisor tails journal growth to tell a slow
// worker from a wedged one. Readers skip them — only "cell ... ok"
// records count as journaled.
//
// Parsing is strict about completed records: a header or a "cell ... ok"
// line with a non-numeric field fails loudly with the journal path, line
// number and offending token (corruption must never be silently coerced
// into shard 0/0 or zero counts). Only a line *without* the "ok"
// terminator — the signature of a crash mid-write — is skipped.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace cobra::runner {

/// Run parameters a journal is bound to; a resume under different
/// parameters is refused.
struct JournalHeader {
  std::string experiment;     ///< registry name
  int shard_index = 1;        ///< 1-based shard i of i/k
  int shard_count = 1;        ///< shard count k
  std::uint64_t seed = 0;     ///< util::global_seed() of the run
  double scale = 1.0;         ///< util::scale() of the run
  /// util::kernel_threads() of the run — in-round frontier-kernel lanes.
  /// Results are bit-identical at every setting, but the value is still
  /// journaled and pinned so a resumed shard reproduces the original
  /// run's wall-time profile (cost-model balancing reads journaled wall
  /// times) and so the recorded provenance of an archive is complete; a
  /// mismatch is refused like a seed mismatch.
  int kernel_threads = 1;

  /// Field-wise comparison (resume validation).
  bool operator==(const JournalHeader&) const = default;
};

/// One journaled (completed) cell.
struct JournalEntry {
  std::string cell_id;  ///< CellDef::id
  std::vector<std::size_t> rows_per_table;  ///< CSV rows it contributed
  std::uint64_t wall_us = 0;  ///< cell body wall time, microseconds
};

/// Append-only checkpoint manifest of one shard's run.
class Journal {
 public:
  /// Starts a fresh journal at `path` (truncating any previous one) and
  /// writes the header.
  static Journal create(const std::string& path,
                        const JournalHeader& header);

  /// Loads an existing journal, validating that its header equals
  /// `expected` (CheckError otherwise), and reopens it for appending.
  static Journal resume(const std::string& path,
                        const JournalHeader& expected);

  /// Parses a journal without opening it for writing (merge validation).
  static std::pair<JournalHeader, std::vector<JournalEntry>> read(
      const std::string& path);

  /// Move-constructs, transferring ownership of the open file.
  Journal(Journal&&) noexcept;
  Journal& operator=(Journal&&) = delete;
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;
  /// Closes the underlying file.
  ~Journal();

  /// Appends a completed cell and flushes to disk.
  void record(const JournalEntry& entry);

  /// Appends a liveness marker (`heartbeat\t<cell id>`) and flushes.
  /// Written when a cell starts; skipped by every reader, so it never
  /// affects resume or merge — it only makes the journal file grow at
  /// cell boundaries for the supervisor's wedge detection.
  void heartbeat(const std::string& cell_id);

  /// Cells journaled so far (including those loaded by resume()).
  [[nodiscard]] const std::vector<JournalEntry>& entries() const {
    return entries_;
  }

  /// Total rows journaled for table `table_index` — the number of data
  /// rows its fragment must contain for the journal to be consistent.
  [[nodiscard]] std::size_t journaled_rows(std::size_t table_index) const;

 private:
  Journal() = default;

  struct Impl;
  Impl* impl_ = nullptr;
  std::vector<JournalEntry> entries_;
};

/// Strict full-token base-10 parse shared by the journal and cost-model
/// readers: the whole `token` must be a number, otherwise CheckError with
/// `path`, the 1-based `line_no`, the `field` name and the offending
/// token — manifest corruption must fail loudly where it is read, never
/// be silently coerced to 0 (the old std::atoi behaviour).
std::uint64_t parse_u64_field(const std::string& token, const char* field,
                              const std::string& path,
                              std::size_t line_no);

}  // namespace cobra::runner
