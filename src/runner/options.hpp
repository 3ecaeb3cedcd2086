// Dependency-free command-line parsing for the cobra runner.
//
// Every flag shadows one of the historical COBRA_* environment variables
// (or configures the sweep machinery that replaced the per-driver
// plumbing). Flags always win over the environment; unset flags leave the
// env defaults in util/env untouched.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace cobra::runner {

/// Parsed command line of the `cobra` binary.
struct RunnerOptions {
  std::optional<double> scale;         ///< --scale: COBRA_SCALE override
  std::optional<std::uint64_t> seed;   ///< --seed: COBRA_SEED override
  std::optional<int> threads;          ///< --threads: COBRA_THREADS override
  /// --kernel-threads: COBRA_KERNEL_THREADS override — in-round worker
  /// lanes for the frontier kernel's dense scans and commit merge (1 =
  /// serial; results are bit-identical at every setting). Orthogonal to
  /// --threads, which caps the Monte-Carlo replicate fan-out.
  std::optional<int> kernel_threads;
  /// --graphs: COBRA_GRAPHS override — comma-separated graph specs
  /// (graph/spec.hpp grammar, incl. file:PATH) for spec-driven
  /// experiments such as `workload`.
  std::optional<std::string> graphs;
  /// --metrics: COBRA_METRICS override — telemetry mode off|summary|rounds
  /// (validated at parse time). "summary" archives per-cell counter
  /// totals to the <experiment>.metrics.jsonl sidecar; "rounds" adds the
  /// per-round frontier trajectory. Neither perturbs fixed-seed results.
  std::optional<std::string> metrics;

  std::string out_dir = "bench_results";  ///< result/journal directory
  int shard_index = 1;                    ///< 1-based i of --shard i/k
  int shard_count = 1;                    ///< k of --shard i/k
  bool resume = false;                    ///< --resume: continue a journal

  /// -j/--jobs: worker count for `cobra sweep` (0 = unset, default 2).
  int jobs = 0;
  /// --costs: cost-model file for weighted shard slicing ("" = round
  /// robin). Applies to `cobra run --shard` and to `cobra sweep` workers.
  std::string costs;
  /// --heartbeat-timeout: seconds without journal growth before the sweep
  /// supervisor declares a live worker wedged and respawns it (0 = never).
  double heartbeat_timeout = 300.0;
  /// --max-restarts: per-shard respawn budget before the sweep aborts.
  int max_restarts = 3;
  /// --inject-kill: fault injection for tests/CI — shard i's first worker
  /// SIGKILLs itself after its first journaled cell (0 = off).
  int inject_kill = 0;

  bool list = false;   ///< --list: print cells instead of running them
  bool help = false;   ///< --help / -h
  std::string filter;  ///< substring match on experiment names

  /// -o/--out: output file for `cobra graph ingest|gen` (.cgr path).
  std::string out_path;
  /// --name: graph name embedded in the .cgr header at ingest ("" = use
  /// the spec string / the edge-list file stem).
  std::string graph_name;
  /// --verify: `cobra graph info` — deep-validate the CSR and rehash the
  /// fingerprint instead of trusting the header.
  bool verify = false;

  /// --watch: `cobra top` refresh interval in seconds (0 = render once).
  double watch = 0.0;

  /// Stop after this many cells (chunked runs, interruption tests);
  /// negative means unlimited.
  std::int64_t max_cells = -1;

  /// Everything that is not a flag: subcommand and experiment names.
  std::vector<std::string> positional;
};

/// Parses `args` (argv without the program name). Returns std::nullopt on
/// success; otherwise a human-readable error message. `--flag value` and
/// `--flag=value` are both accepted.
std::optional<std::string> parse_args(const std::vector<std::string>& args,
                                      RunnerOptions& options);

/// Pushes --scale/--seed/--threads into the util/env override slots so all
/// downstream code (default_replicates, make_stream, worker_count) sees
/// them. Call once, before enumerating or running any experiment.
void apply_env_overrides(const RunnerOptions& options);

/// The --help text, kept in sync with README.md's "Running experiments".
std::string usage();

}  // namespace cobra::runner
