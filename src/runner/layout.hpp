// The run-directory layout: the one place that builds, parses and lists
// the names of the files a run leaves under --out-dir.
//
// Per shard i of k of an experiment (an unsharded run is shard 1/1):
//
//   <experiment>.<i>of<k>.journal        checkpoint manifest (journal.hpp)
//   <table>.shard<i>of<k>.csv            CSV fragment; shard 1/1 writes the
//                                        canonical <table>.csv directly
//   <experiment>.<i>of<k>.metrics.jsonl  metrics sidecar (telemetry.hpp);
//                                        shard 1/1 and the merge write the
//                                        canonical <experiment>.metrics.jsonl
//   <experiment>.<i>of<k>.worker.log     a sweep worker's stdout + stderr
//
// Per experiment:
//
//   <experiment>.costs                   per-cell cost model (sweep.hpp)
//   <experiment>.sweep.status            supervisor fleet snapshot
//
// File names are input like file contents: parse() accepts a name only
// when it is exactly one that the builders above produce — `<i>of<k>` in
// plain digits without leading zeros, 1 <= i <= k, nothing before or
// after — so the merge, the sweep supervisor and `cobra top` / `cobra
// report` all see the same set of shard files in a directory.
#pragma once

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace cobra::runner::layout {

/// `<out_dir>/<experiment>.<i>of<k>.journal`.
std::string journal(const std::string& out_dir, const std::string& experiment,
                    int shard_index, int shard_count);

/// `<out_dir>/<table id>.shard<i>of<k>.csv`; shard 1/1 is the canonical
/// `<out_dir>/<table id>.csv` itself.
std::string fragment(const std::string& out_dir, const std::string& table_id,
                     int shard_index, int shard_count);

/// `<out_dir>/<experiment>.<i>of<k>.metrics.jsonl`; shard 1/1 is the
/// canonical `<out_dir>/<experiment>.metrics.jsonl`.
std::string sidecar(const std::string& out_dir, const std::string& experiment,
                    int shard_index, int shard_count);

/// `<out_dir>/<experiment>.<i>of<k>.worker.log`.
std::string worker_log(const std::string& out_dir,
                       const std::string& experiment, int shard_index,
                       int shard_count);

/// `<out_dir>/<experiment>.costs`.
std::string costs(const std::string& out_dir, const std::string& experiment);

/// `<out_dir>/<experiment>.sweep.status`.
std::string sweep_status(const std::string& out_dir,
                         const std::string& experiment);

/// The shard files the layout knows how to find again.
enum class FileKind {
  kJournal,  ///< `<experiment>.<i>of<k>.journal`
  kSidecar,  ///< `<experiment>[.<i>of<k>].metrics.jsonl`
};

/// One parsed run-directory file name.
struct ShardFile {
  FileKind kind = FileKind::kJournal;  ///< which file it is
  std::string experiment;              ///< registry name
  int shard_index = 1;                 ///< i of i/k
  int shard_count = 1;                 ///< k of i/k
  /// The sidecar without a shard spec (`<experiment>.metrics.jsonl`):
  /// a completed unsharded run's or a merge's, read as shard 1/1.
  bool canonical = false;
  std::string path;  ///< `<out_dir>/<file name>` (set by list())
};

/// Parses a bare file name (no directory); std::nullopt for anything that
/// is not a journal or sidecar name spelled exactly as the builders spell
/// it.
std::optional<ShardFile> parse(std::string_view file_name);

/// Every `kind` file directly under `out_dir` (none when the directory
/// does not exist), grouped by experiment; each group is sorted by shard
/// count, then shard index, with a canonical sidecar first.
std::map<std::string, std::vector<ShardFile>> list(const std::string& out_dir,
                                                   FileKind kind);

}  // namespace cobra::runner::layout
