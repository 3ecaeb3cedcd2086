#include "runner/options.hpp"

#include <cstdlib>

#include "util/env.hpp"

namespace cobra::runner {

namespace {

bool parse_double(const std::string& text, double& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end == text.c_str() + text.size();
}

bool parse_int(const std::string& text, std::int64_t& out) {
  if (text.empty()) return false;
  char* end = nullptr;
  out = std::strtoll(text.c_str(), &end, 10);
  return end == text.c_str() + text.size();
}

// "i/k" with 1 <= i <= k.
bool parse_shard(const std::string& text, int& index, int& count) {
  const auto slash = text.find('/');
  if (slash == std::string::npos) return false;
  std::int64_t i = 0, k = 0;
  if (!parse_int(text.substr(0, slash), i)) return false;
  if (!parse_int(text.substr(slash + 1), k)) return false;
  if (k < 1 || i < 1 || i > k || k > 1'000'000) return false;
  index = static_cast<int>(i);
  count = static_cast<int>(k);
  return true;
}

}  // namespace

std::optional<std::string> parse_args(const std::vector<std::string>& args,
                                      RunnerOptions& options) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg.empty()) continue;
    if (arg == "-h" || arg == "--help" || arg == "help") {
      options.help = true;
      continue;
    }
    if (arg[0] != '-') {
      options.positional.push_back(arg);
      continue;
    }

    // Split "--flag=value"; "--flag value" consumes the next argument.
    std::string name = arg;
    std::optional<std::string> inline_value;
    if (const auto eq = arg.find('='); eq != std::string::npos) {
      name = arg.substr(0, eq);
      inline_value = arg.substr(eq + 1);
    }
    const auto take_value = [&]() -> std::optional<std::string> {
      if (inline_value) return inline_value;
      if (i + 1 < args.size()) return args[++i];
      return std::nullopt;
    };

    if (name == "--list") {
      options.list = true;
    } else if (name == "--resume") {
      options.resume = true;
    } else if (name == "--scale") {
      const auto value = take_value();
      double parsed = 0.0;
      if (!value || !parse_double(*value, parsed) || parsed <= 0.0)
        return "--scale expects a positive number";
      options.scale = parsed;
    } else if (name == "--seed") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed))
        return "--seed expects an integer";
      options.seed = static_cast<std::uint64_t>(parsed);
    } else if (name == "--threads") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed) || parsed < 1)
        return "--threads expects a positive integer";
      options.threads = static_cast<int>(parsed);
    } else if (name == "--kernel-threads") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed) || parsed < 1 || parsed > 256)
        return "--kernel-threads expects a lane count between 1 and 256";
      options.kernel_threads = static_cast<int>(parsed);
    } else if (name == "--graphs") {
      const auto value = take_value();
      if (!value || value->empty())
        return "--graphs expects a comma-separated graph-spec list";
      options.graphs = *value;
    } else if (name == "--metrics") {
      const auto value = take_value();
      if (!value ||
          (*value != "off" && *value != "summary" && *value != "rounds"))
        return "--metrics expects one of off|summary|rounds";
      options.metrics = *value;
    } else if (name == "--watch") {
      const auto value = take_value();
      double parsed = 0.0;
      if (!value || !parse_double(*value, parsed) || parsed < 0.0)
        return "--watch expects a non-negative number of seconds";
      options.watch = parsed;
    } else if (name == "-o" || name == "--out") {
      const auto value = take_value();
      if (!value || value->empty()) return "--out expects a file path";
      options.out_path = *value;
    } else if (name == "--name") {
      const auto value = take_value();
      if (!value || value->empty()) return "--name expects a graph name";
      options.graph_name = *value;
    } else if (name == "--verify") {
      options.verify = true;
    } else if (name == "--out-dir") {
      const auto value = take_value();
      if (!value || value->empty()) return "--out-dir expects a path";
      options.out_dir = *value;
    } else if (name == "--shard") {
      const auto value = take_value();
      if (!value || !parse_shard(*value, options.shard_index,
                                 options.shard_count))
        return "--shard expects i/k with 1 <= i <= k (e.g. --shard 2/8)";
    } else if (name == "-j" || name == "--jobs") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed) || parsed < 1 ||
          parsed > 4096)
        return "--jobs expects a worker count between 1 and 4096";
      options.jobs = static_cast<int>(parsed);
    } else if (name == "--costs") {
      const auto value = take_value();
      if (!value || value->empty()) return "--costs expects a file path";
      options.costs = *value;
    } else if (name == "--heartbeat-timeout") {
      const auto value = take_value();
      double parsed = 0.0;
      if (!value || !parse_double(*value, parsed) || parsed < 0.0)
        return "--heartbeat-timeout expects a non-negative number of "
               "seconds (0 disables wedge detection)";
      options.heartbeat_timeout = parsed;
    } else if (name == "--max-restarts") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed) || parsed < 0)
        return "--max-restarts expects a non-negative integer";
      options.max_restarts = static_cast<int>(parsed);
    } else if (name == "--inject-kill") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed) || parsed < 1)
        return "--inject-kill expects a shard index (1-based)";
      options.inject_kill = static_cast<int>(parsed);
    } else if (name == "--filter") {
      const auto value = take_value();
      if (!value) return "--filter expects a substring";
      options.filter = *value;
    } else if (name == "--max-cells") {
      const auto value = take_value();
      std::int64_t parsed = 0;
      if (!value || !parse_int(*value, parsed) || parsed < 0)
        return "--max-cells expects a non-negative integer";
      options.max_cells = parsed;
    } else {
      return "unknown flag: " + name + " (see --help)";
    }
    if (inline_value &&
        (name == "--list" || name == "--resume" || name == "--verify"))
      return name + " does not take a value";
  }
  return std::nullopt;
}

void apply_env_overrides(const RunnerOptions& options) {
  if (options.scale) util::set_scale_override(*options.scale);
  if (options.seed) util::set_seed_override(*options.seed);
  if (options.threads) util::set_threads_override(*options.threads);
  if (options.kernel_threads)
    util::set_kernel_threads_override(*options.kernel_threads);
  if (options.graphs) util::set_graphs_override(*options.graphs);
  if (options.metrics) util::set_metrics_override(*options.metrics);
}

std::string usage() {
  return R"(cobra — unified experiment runner for the COBRA reproduction

Usage:
  cobra list [--filter SUB]            enumerate registered experiments
  cobra run  [NAME...] [options]       run experiments (all when no NAME)
  cobra sweep NAME... [-j K] [options] supervised distributed sweep: spawn
                                       K `cobra run --shard i/K --resume`
                                       workers, watch their journals for
                                       liveness, respawn dead or wedged
                                       workers, auto-merge on completion
  cobra merge NAME... [--out-dir DIR]  stitch shard fragments into the
                                       canonical CSV and print the summary
  cobra top [DIR] [--watch S]          fleet view of a run directory:
                                       per-shard cell progress from the
                                       journals, worker liveness and
                                       respawn/wedge counters from the
                                       sweep status file, ETA from the
                                       archived .costs model; --watch S
                                       re-renders every S seconds
  cobra report [DIR]                   render archived metrics sidecars
                                       (<exp>.metrics.jsonl) as per-cell
                                       comparison tables, no re-running
  cobra graph ingest EDGELIST -o G.cgr [--name N]
                                       convert a text edge list to the
                                       binary .cgr format (streaming; full
                                       structural validation + fingerprint)
  cobra graph gen SPEC -o G.cgr        pre-bake a synthetic family (spec
                                       grammar below) to disk
  cobra graph info G.cgr [--verify]    print a .cgr header; --verify also
                                       deep-validates the CSR and rehashes
                                       the fingerprint
  cobra help                           this text

Options (each flag overrides its COBRA_* environment variable):
  --scale S        workload multiplier            (env COBRA_SCALE,  default 1)
  --seed N         base experiment seed           (env COBRA_SEED,   default 20170724)
  --threads T      Monte-Carlo worker cap         (env COBRA_THREADS, default hardware)
  --kernel-threads L  in-round kernel lanes       (env COBRA_KERNEL_THREADS, default 1)
                   fan the frontier kernel's dense scans and commit merge
                   out over L lanes; results are bit-identical at every L
                   (orthogonal to --threads: worst case spawns T x L threads)
  --graphs LIST    comma-separated graph specs    (env COBRA_GRAPHS)
                   for spec-driven experiments (`workload`):
                   complete_N cycle_N path_N star_N hypercube_D torus_S_dD
                   regular_N_rR petersen file:PATH  (PATH: .cgr is
                   mmap-loaded, anything else is a text edge list)
  --metrics M      telemetry mode                 (env COBRA_METRICS, default off)
                   off     — no collection (zero-cost null checks)
                   summary — per-cell counter totals archived to the
                             <exp>.metrics.jsonl sidecar next to the journal
                   rounds  — totals plus per-round frontier trajectories
                   Fixed-seed results are bit-identical in every mode;
                   `cobra report` renders the archived sidecars.
  --out-dir DIR    result/journal directory       (default bench_results)
  --shard i/k      run only cells with index % k == i-1 (1-based i)
  --resume         continue a journaled run: completed cells are skipped,
                   CSV fragments are reopened in append mode
  --filter SUB     restrict list/run to experiments whose name contains SUB
  --list           with run: print the selected cells, run nothing;
                   with sweep: print each shard's slice, spawn nothing
  --max-cells N    stop after N cells (chunked runs); combine with --resume
  --costs FILE     per-cell cost model (an <experiment>.costs file archived
                   by a previous completed run or merge): shard slices are
                   balanced by weighted LPT instead of round-robin; every
                   worker and resume of one run must use the same file
  -j, --jobs K     sweep worker process count           (default 2)
  --heartbeat-timeout S  sweep: seconds without journal growth before a
                   live worker counts as wedged and is respawned
                   (default 300; 0 disables). Floored per shard at 3x its
                   heaviest --costs cell and doubled after each wedge
                   kill, so honest long cells never drain the budget
  --max-restarts N sweep: respawn budget per shard      (default 3)
  --inject-kill I  sweep fault injection (tests/CI): shard I's first
                   worker SIGKILLs itself after its first journaled cell
  -h, --help       this text

With --metrics summary|rounds every completed cell appends one JSON line
to the shard's <exp>[.<i>of<k>].metrics.jsonl sidecar; merge and completed
unsharded runs compact/re-order the sidecars deterministically. A running
sweep additionally maintains <exp>.sweep.status (atomic rewrite, ~1/s)
which `cobra top` combines with the journals and the archived .costs
model into a live fleet view with ETA.

Sharded sweeps write <table>.shard<i>of<k>.csv fragments plus a
<experiment>.<i>of<k>.journal manifest into --out-dir; `cobra merge`
validates that every shard completed and reassembles the canonical
<table>.csv in cell-enumeration order (byte-identical to an unsharded run
at the same seed and scale). `cobra sweep` drives the whole cycle in one
command: k worker processes, journal-heartbeat liveness, automatic
respawn-and-resume of dead shards, automatic merge. Completed runs and
merges archive per-cell wall times to <out-dir>/<experiment>.costs —
feed that file back via --costs to balance the next sweep's slices.
)";
}

}  // namespace cobra::runner
