// The distributed-sweep supervisor behind `cobra sweep`.
//
// Spawns k worker processes, each running
// `<worker_binary> run <experiment> --shard i/k --resume ...`, and babysits
// them until the whole sweep is merged:
//
//   * Liveness is read from the shard journals: workers append a
//     heartbeat line when a cell starts and a "cell ... ok" record when it
//     finishes, so a healthy worker's journal grows at every cell
//     boundary. A worker whose process died (crash, OOM kill, SIGKILL) is
//     detected via waitpid; a worker that is alive but has not grown its
//     journal for `heartbeat_timeout_s` seconds is declared wedged and
//     SIGKILLed.
//   * Either way the shard is reassigned: a fresh worker is spawned with
//     `--resume`, picks the journal up, truncates any torn fragment tail
//     and re-runs only the unfinished cells — at most `max_restarts`
//     times per shard before the sweep aborts with the worker's log.
//   * Once every shard has journaled its full slice, the supervisor runs
//     the order-restoring merge, so the final <table>.csv files are
//     byte-identical to an unsharded run at the same seed/scale.
//
// Slices are round-robin by default; pointing `costs_path` at a
// `<experiment>.costs` file (archived by any completed run or merge)
// switches to cost-weighted LPT slices so heavy-tailed sweeps stop
// serialising on one unlucky shard. A costs path that does not exist
// falls back to round-robin with a log notice.
#pragma once

#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "runner/registry.hpp"
#include "runner/sweep.hpp"

namespace cobra::runner {

/// Configuration of one supervised sweep.
struct SupervisorConfig {
  std::string out_dir = "bench_results";  ///< fragment/journal directory
  int workers = 2;                        ///< shard/worker count k
  /// Executable to spawn as workers — the `cobra` binary itself (the CLI
  /// resolves /proc/self/exe). The supervisor appends
  /// `run <experiment> --shard i/k --resume --out-dir ...` plus pinned
  /// `--seed/--scale/--metrics/--kernel-threads` so every respawn resumes
  /// the exact run configuration.
  std::string worker_binary;
  /// Extra argv appended to every worker command (e.g. `--threads 2`).
  std::vector<std::string> worker_args;
  /// Cost-model file for weighted slicing ("" = round-robin; a
  /// non-existent file falls back to round-robin with a notice).
  std::string costs_path;
  /// Seconds without journal growth before a live worker counts as
  /// wedged and is killed + respawned. 0 disables wedge detection.
  /// Heartbeats tick at cell boundaries, so honest long cells must not
  /// read as wedges: the effective per-shard threshold is floored at 3x
  /// the shard's heaviest expected cell when a cost model is available,
  /// and doubles after every wedge kill (an underestimate self-corrects
  /// instead of re-killing the same heavy cell until the budget drains).
  double heartbeat_timeout_s = 300.0;
  int max_restarts = 3;  ///< respawn budget per shard
  /// Fault injection (tests/CI): this shard's first worker runs with
  /// COBRA_SWEEP_KILL_AFTER_CELLS=1 and SIGKILLs itself after its first
  /// journaled cell. 0 = off.
  int inject_kill_shard = 0;
  double poll_interval_s = 0.05;  ///< supervisor loop period
  std::ostream* log = nullptr;    ///< progress log; nullptr silences it
  /// Test hook, called after each successful spawn with (shard, pid).
  std::function<void(int, long)> on_spawn;
};

/// Per-shard outcome of a supervised sweep.
struct ShardOutcome {
  std::size_t cells = 0;  ///< cells in the shard's slice
  int restarts = 0;       ///< times the shard's worker was respawned
  int wedges = 0;         ///< wedge kills among those (no journal growth)
};

/// What one supervised sweep did.
struct SupervisorResult {
  int workers = 0;             ///< shard count k
  int restarts_total = 0;      ///< respawns across all shards
  int wedges_total = 0;        ///< wedge kills across all shards
  std::string costs_path;      ///< cost model used ("" = round-robin)
  std::vector<ShardOutcome> shards;  ///< indexed shard-1
  MergeResult merge;           ///< the automatic final merge
};

/// Runs the full supervised sweep of `def` (spawn → watch → respawn →
/// merge) and returns what happened. Throws util::CheckError when a shard
/// exhausts its restart budget or any journal/merge validation fails.
SupervisorResult supervise_experiment(const ExperimentDef& def,
                                      const SupervisorConfig& config);

}  // namespace cobra::runner
