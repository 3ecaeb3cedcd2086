#include "runner/supervisor.hpp"

#include <fcntl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <ostream>
#include <sstream>
#include <thread>

#include "graph/binary_io.hpp"
#include "graph/spec.hpp"
#include "runner/journal.hpp"
#include "runner/layout.hpp"
#include "runner/telemetry.hpp"
#include "util/annotations.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"

extern "C" char** environ;

namespace cobra::runner {

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/// One supervised shard and the worker process currently owning it.
struct Shard {
  int index = 0;              // 1-based shard i of i/k
  std::size_t cells = 0;      // slice size (completion target)
  std::string journal_path;
  std::string log_path;       // worker stdout+stderr
  pid_t pid = -1;             // -1: no live worker
  int restarts = 0;
  int wedges = 0;             // wedge kills among the restarts
  bool complete = false;
  std::uintmax_t last_size = 0;         // journal size at last progress
  Clock::time_point last_progress{};    // journal growth or spawn time
  /// Wedge threshold for this shard (0 = disabled). Floored at 3x the
  /// shard's heaviest expected cell when a cost model is available, and
  /// doubled after every wedge kill: heartbeats only tick at cell
  /// boundaries, so an honest long cell must never burn the restart
  /// budget — an underestimated timeout self-corrects instead of
  /// re-killing the same heavy cell until the sweep aborts.
  double timeout_s = 0;
};

/// Pre-bakes the session's --graphs/COBRA_GRAPHS list for the workers of
/// a spec-driven experiment: synthetic specs and text edge lists are
/// written once to <out_dir>/graphs/<label>.cgr and rewritten as `file:`
/// references, so every worker mmaps the same on-disk CSR (one page-cache
/// copy, zero per-worker generation) instead of rebuilding the graph per
/// process. Cell labels and seeds are derived from the embedded name and
/// the fingerprint respectively, so the rewrite is invisible in the
/// output. Already-binary `file:*.cgr` specs pass through untouched.
/// Returns "" when no spec list is set (the experiment's built-in default
/// list stays in-process).
std::string prebake_graph_specs(const std::string& out_dir,
                                std::ostream* log) {
  const std::string list = util::graphs();
  if (list.empty()) return "";
  std::string rewritten;
  for (const std::string& spec : graph::split_graph_specs(list)) {
    std::string resolved = spec;
    const bool already_baked =
        graph::is_file_spec(spec) &&
        fs::path(spec.substr(5)).extension() == ".cgr";
    if (!already_baked) {
      const std::string label = graph::graph_spec_label(spec);
      std::string file_name = label;
      for (char& c : file_name)
        if (c == '/' || c == '\\' || c == ' ') c = '_';
      const fs::path cgr =
          fs::path(out_dir) / "graphs" / (file_name + ".cgr");
      graph::Graph g = graph::build_graph_spec(spec);
      // The embedded name is the workers' cell label — pin it to the
      // label this supervisor enumerated so the journals line up.
      g.set_name(label);
      graph::write_cgr_file(g, cgr.string());
      resolved = "file:" + cgr.string();
      if (log) {
        *log << "[sweep] pre-baked graph " << spec << " -> "
             << cgr.string() << '\n';
      }
    }
    if (!rewritten.empty()) rewritten += ',';
    rewritten += resolved;
  }
  return rewritten;
}

/// The last ~8 lines of a worker log, indented — appended to the abort
/// message so the shard's actual failure is visible without digging.
std::string log_tail(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) return "  (no worker log at " + path + ")";
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    lines.push_back(line);
    if (lines.size() > 8) lines.erase(lines.begin());
  }
  std::ostringstream os;
  for (const std::string& l : lines) os << "  | " << l << '\n';
  return os.str();
}

std::string describe_exit(int status) {
  std::ostringstream os;
  if (WIFEXITED(status)) {
    os << "exited with code " << WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    os << "killed by signal " << WTERMSIG(status);
  } else {
    os << "stopped with status " << status;
  }
  return os.str();
}

/// Spawns one worker for `shard`. `argv_head` is the full worker command
/// minus the `--shard i/k` pair, which is appended here. When `inject`
/// is set the child runs with COBRA_SWEEP_KILL_AFTER_CELLS=1 (fault
/// injection: it SIGKILLs itself after its first journaled cell).
pid_t spawn_worker(const std::vector<std::string>& argv_head,
                   const Shard& shard, int shard_count, bool inject) {
  std::vector<std::string> args = argv_head;
  args.push_back("--shard");
  args.push_back(std::to_string(shard.index) + "/" +
                 std::to_string(shard_count));

  // argv/envp are assembled before fork(): the child must only touch
  // async-signal-safe calls (open/dup2/execve) between fork and exec.
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);

  std::vector<std::string> env_strings;
  for (char** e = environ; *e != nullptr; ++e) env_strings.emplace_back(*e);
  if (inject) env_strings.emplace_back("COBRA_SWEEP_KILL_AFTER_CELLS=1");
  std::vector<char*> envp;
  envp.reserve(env_strings.size() + 1);
  for (std::string& e : env_strings) envp.push_back(e.data());
  envp.push_back(nullptr);

  const pid_t pid = fork();
  COBRA_CHECK_MSG(pid >= 0, "fork failed: " << std::strerror(errno));
  if (pid == 0) {
    const int fd = open(shard.log_path.c_str(),
                        O_WRONLY | O_CREAT | O_APPEND, 0644);
    if (fd >= 0) {
      dup2(fd, STDOUT_FILENO);
      dup2(fd, STDERR_FILENO);
      if (fd > STDERR_FILENO) close(fd);
    }
    execve(argv[0], argv.data(), envp.data());
    _exit(127);  // exec failed; the supervisor reads the status
  }
  return pid;
}

/// Refuses to start when `out_dir` holds journals of `experiment` with a
/// shard count other than `workers`: they would sail through the whole
/// sweep unnoticed and only blow up the final auto-merge ("mixes
/// journals of different shard counts") after every cell already ran —
/// e.g. the 1of1 journal a plain `cobra run` left in the directory, or a
/// previous sweep at a different -j.
void check_no_conflicting_journals(const std::string& out_dir,
                                   const std::string& experiment,
                                   int workers) {
  const auto runs = layout::list(out_dir, layout::FileKind::kJournal);
  const auto run = runs.find(experiment);
  if (run == runs.end()) return;
  std::vector<std::string> conflicts;
  for (const layout::ShardFile& journal : run->second) {
    if (journal.shard_count != workers)
      conflicts.push_back(fs::path(journal.path).filename().string());
  }
  if (conflicts.empty()) return;
  std::sort(conflicts.begin(), conflicts.end());
  std::ostringstream os;
  for (const std::string& file : conflicts) os << ' ' << file;
  COBRA_CHECK_MSG(false,
                  out_dir << " holds " << experiment
                          << " journals from a different shard count:"
                          << os.str() << " — the final merge would refuse "
                          << "to mix them with a -j " << workers
                          << " sweep. Use a fresh --out-dir, or delete "
                          << "the stale journals (and their fragments) "
                          << "if that run is no longer needed");
}

/// Per-shard facts fixed before any worker (or the status thread) starts:
/// shared across threads without a lock because nothing ever writes them
/// again.
struct ShardFacts {
  int index = 0;              // 1-based shard i of i/k
  std::size_t cells = 0;      // slice size (completion target)
  std::string journal_path;
};

/// The live shard board shared between the poll loop (sole writer) and
/// the status thread (reader). The poll loop publishes cheap snapshots of
/// the mutable worker bookkeeping; the status thread turns them into the
/// `cobra top` sidecar off the critical path, so the slow Journal::read
/// that counts a shard's finished cells no longer delays waitpid reaping
/// or wedge detection between polls.
struct ShardBoard {
  /// Mutable slice of one Shard, as the status thread sees it.
  struct Entry {
    long pid = -1;
    int restarts = 0;
    int wedges = 0;
    bool complete = false;
  };
  util::Mutex mu;
  std::vector<Entry> entries COBRA_GUARDED_BY(mu);
  bool stop COBRA_GUARDED_BY(mu) = false;
  std::condition_variable cv;  // signals `stop` for a prompt join
};

/// Snapshot of the mutable per-shard state for the board.
std::vector<ShardBoard::Entry> entries_from(const std::vector<Shard>& shards) {
  std::vector<ShardBoard::Entry> entries;
  entries.reserve(shards.size());
  for (const Shard& shard : shards) {
    entries.push_back(ShardBoard::Entry{static_cast<long>(shard.pid),
                                        shard.restarts, shard.wedges,
                                        shard.complete});
  }
  return entries;
}

/// Builds the fleet snapshot for `cobra top`.
/// `done` carries the last known journaled-cell count per shard across
/// calls: a worker may be mid-append, and a transiently unreadable
/// journal keeps the previous count rather than failing the sweep.
SweepStatus build_sweep_status(const std::string& experiment,
                               const std::vector<ShardFacts>& facts,
                               const std::vector<ShardBoard::Entry>& entries,
                               std::vector<std::size_t>& done) {
  SweepStatus status;
  status.experiment = experiment;
  status.shard_count = static_cast<int>(facts.size());
  for (std::size_t i = 0; i < facts.size(); ++i) {
    const ShardFacts& fact = facts[i];
    const ShardBoard::Entry& entry = entries[i];
    if (!entry.complete && fs::exists(fact.journal_path)) {
      try {
        done[i] = Journal::read(fact.journal_path).second.size();
      } catch (const util::CheckError&) {
      }
    }
    ShardStatus s;
    s.index = fact.index;
    s.pid = entry.pid;
    s.restarts = entry.restarts;
    s.wedges = entry.wedges;
    s.state = entry.complete ? "complete"
                             : (entry.pid > 0 ? "running" : "dead");
    s.cells_done = entry.complete ? fact.cells : done[i];
    s.cells_total = fact.cells;
    status.shards.push_back(std::move(s));
  }
  return status;
}

/// Body of the status thread: about once a second, snapshot the board,
/// count journaled cells and rewrite the status sidecar — all journal
/// I/O outside the lock. Returns on stop *without* a last write; the
/// supervisor writes the initial and final snapshots itself, so the
/// "initial + ~1/s + final" contract holds regardless of thread timing.
void status_writer_loop(ShardBoard& board,
                        const std::vector<ShardFacts>& facts,
                        const std::string& status_path,
                        const std::string& experiment) {
  std::vector<std::size_t> done(facts.size(), 0);
  for (;;) {
    std::vector<ShardBoard::Entry> entries;
    {
      util::MutexLock lock(board.mu);
      // Manual deadline loop rather than the predicate overload: the
      // guarded reads stay in this scope, where the analysis can see the
      // capability held (and a spurious wakeup cannot write early).
      const auto deadline = Clock::now() + std::chrono::seconds(1);
      while (!board.stop && Clock::now() < deadline)
        board.cv.wait_until(lock.native(), deadline);
      if (board.stop) return;
      entries = board.entries;
    }
    write_sweep_status(status_path,
                       build_sweep_status(experiment, facts, entries, done));
  }
}

/// Stops and joins the status thread on every exit path. Declared *after*
/// the Reaper so it destructs first: the thread must be gone before the
/// board and shards it reads are torn down.
struct StatusThread {
  ShardBoard* board;
  std::thread thread;
  ~StatusThread() {
    {
      util::MutexLock lock(board->mu);
      board->stop = true;
    }
    board->cv.notify_all();
    if (thread.joinable()) thread.join();
  }
};

/// Kills (SIGKILL) and reaps every still-live worker — exception-path
/// cleanup so an aborting sweep never leaks orphan processes.
struct Reaper {
  std::vector<Shard>* shards;
  bool disarmed = false;
  ~Reaper() {
    if (disarmed) return;
    for (Shard& shard : *shards) {
      if (shard.pid <= 0) continue;
      kill(shard.pid, SIGKILL);
      int status = 0;
      waitpid(shard.pid, &status, 0);
      shard.pid = -1;
    }
  }
};

}  // namespace

SupervisorResult supervise_experiment(const ExperimentDef& def,
                                      const SupervisorConfig& config) {
  COBRA_CHECK_MSG(config.workers >= 1 && config.workers <= 4096,
                  "invalid sweep worker count " << config.workers);
  COBRA_CHECK_MSG(!config.worker_binary.empty(),
                  "sweep supervisor needs the worker binary path");
  COBRA_CHECK_MSG(config.inject_kill_shard >= 0 &&
                      config.inject_kill_shard <= config.workers,
                  "--inject-kill shard " << config.inject_kill_shard
                                         << " is outside 1.."
                                         << config.workers);
  const int k = config.workers;
  check_no_conflicting_journals(config.out_dir, def.name, k);

  // Resolve the slicing once: an explicit cost model that does not exist
  // falls back to round-robin (first runs have nothing archived yet); a
  // corrupt one fails here, before any worker is spawned.
  std::string costs = config.costs_path;
  if (!costs.empty() && !fs::exists(costs)) {
    if (config.log) {
      *config.log << "[sweep] cost model " << costs
                  << " does not exist; using round-robin slices\n";
    }
    costs.clear();
  }
  const std::vector<CellDef> cells = def.cells();
  // One cost-file read and one LPT pass set up every shard; the empty
  // vector means round-robin.
  const std::vector<std::uint64_t> costs_us = cell_costs(cells, costs);
  const std::vector<std::vector<std::size_t>> partition =
      partition_for(cells.size(), k, costs_us);

  // Pin the run configuration on the worker command line: respawned
  // workers and the final merge must see the exact seed/scale this
  // supervisor resolved, regardless of environment drift.
  std::vector<std::string> argv_head;
  argv_head.push_back(config.worker_binary);
  argv_head.push_back("run");
  argv_head.push_back(def.name);
  argv_head.push_back("--resume");
  argv_head.push_back("--out-dir");
  argv_head.push_back(config.out_dir);
  argv_head.push_back("--seed");
  argv_head.push_back(std::to_string(util::global_seed()));
  {
    std::ostringstream os;
    os << std::setprecision(17) << util::scale();
    argv_head.push_back("--scale");
    argv_head.push_back(os.str());
  }
  argv_head.push_back("--metrics");
  argv_head.push_back(util::metrics_mode_name(util::metrics_mode()));
  // Kernel lanes never change results, but a respawned worker must still
  // journal (and run with) the same value the supervisor resolved, or its
  // resume would be refused on the header mismatch.
  argv_head.push_back("--kernel-threads");
  argv_head.push_back(std::to_string(util::kernel_threads()));
  if (!costs.empty()) {
    argv_head.push_back("--costs");
    argv_head.push_back(costs);
  }
  if (def.uses_graph_specs) {
    const std::string baked =
        prebake_graph_specs(config.out_dir, config.log);
    if (!baked.empty()) {
      argv_head.push_back("--graphs");
      argv_head.push_back(baked);
    }
  }
  argv_head.insert(argv_head.end(), config.worker_args.begin(),
                   config.worker_args.end());

  // Workers redirect into per-shard logs under out_dir; create it first.
  {
    std::error_code ec;
    fs::create_directories(config.out_dir, ec);
    COBRA_CHECK_MSG(!ec, "cannot create sweep directory " << config.out_dir
                                                          << ": "
                                                          << ec.message());
  }

  std::vector<Shard> shards(static_cast<std::size_t>(k));
  for (int i = 1; i <= k; ++i) {
    Shard& shard = shards[static_cast<std::size_t>(i - 1)];
    shard.index = i;
    const auto& slice = partition[static_cast<std::size_t>(i - 1)];
    shard.cells = slice.size();
    shard.journal_path = layout::journal(config.out_dir, def.name, i, k);
    shard.log_path = layout::worker_log(config.out_dir, def.name, i, k);
    shard.timeout_s = config.heartbeat_timeout_s;
    if (shard.timeout_s > 0 && !costs_us.empty()) {
      std::uint64_t heaviest_us = 0;
      for (const std::size_t cell : slice)
        heaviest_us = std::max(heaviest_us, costs_us[cell]);
      shard.timeout_s = std::max(
          shard.timeout_s, 3.0 * static_cast<double>(heaviest_us) / 1e6);
    }
  }

  if (config.log) {
    *config.log << "[sweep] " << def.name << ": " << k << " workers over "
                << cells.size() << " cells ("
                << (costs.empty() ? std::string("round-robin slices")
                                  : "cost-weighted slices from " + costs)
                << ")\n";
  }

  Reaper reaper{&shards};
  bool inject_pending = config.inject_kill_shard > 0;

  // Fleet snapshot for `cobra top`: rewritten atomically at most once a
  // second (plus once at start and at the end), so an observer process
  // always reads a consistent view. The periodic writes run on a
  // dedicated status thread reading the shard board.
  const std::string status_path =
      layout::sweep_status(config.out_dir, def.name);
  std::vector<ShardFacts> facts;
  facts.reserve(shards.size());
  for (const Shard& shard : shards)
    facts.push_back(ShardFacts{shard.index, shard.cells, shard.journal_path});
  ShardBoard board;
  const auto publish = [&shards, &board]() {
    std::vector<ShardBoard::Entry> entries = entries_from(shards);
    util::MutexLock lock(board.mu);
    board.entries = std::move(entries);
  };
  // The supervisor's own journaled-cell counts, for the initial and final
  // status writes (the status thread keeps its own).
  std::vector<std::size_t> done(shards.size(), 0);

  const auto spawn = [&](Shard& shard) {
    const bool inject =
        inject_pending && shard.index == config.inject_kill_shard;
    if (inject) inject_pending = false;
    shard.pid = spawn_worker(argv_head, shard, k, inject);
    std::error_code ec;
    const auto size = fs::file_size(shard.journal_path, ec);
    shard.last_size = ec ? 0 : size;
    shard.last_progress = Clock::now();
    if (config.log) {
      *config.log << "[sweep] shard " << shard.index << "/" << k
                  << ": worker pid " << shard.pid << " started ("
                  << shard.cells << " cells"
                  << (inject ? ", fault injection armed" : "") << ")\n";
    }
    if (config.on_spawn) config.on_spawn(shard.index, shard.pid);
  };
  // Respawn bookkeeping shared by the dead- and wedged-worker paths;
  // aborts (with the worker's log tail) once the budget is exhausted.
  const auto respawn = [&](Shard& shard, const std::string& why) {
    shard.pid = -1;
    ++shard.restarts;
    COBRA_CHECK_MSG(
        shard.restarts <= config.max_restarts,
        "sweep " << def.name << " shard " << shard.index << "/" << k
                 << " failed " << shard.restarts << " times (last: " << why
                 << "); giving up — worker log " << shard.log_path << ":\n"
                 << log_tail(shard.log_path));
    if (config.log) {
      // The dying worker's last journaled/heartbeat cell plus its log
      // tail: enough to see *where* it died without digging through the
      // run directory.
      const std::string last_cell = last_journal_cell(shard.journal_path);
      *config.log << "[sweep] shard " << shard.index << "/" << k
                  << " worker " << why << " (last journal cell: "
                  << (last_cell.empty() ? "<none>" : last_cell)
                  << "); worker log tail:\n" << log_tail(shard.log_path)
                  << "[sweep] respawning shard " << shard.index << "/" << k
                  << " (attempt " << shard.restarts << "/"
                  << config.max_restarts << ")\n";
    }
    spawn(shard);
  };

  for (Shard& shard : shards) spawn(shard);
  publish();
  write_sweep_status(
      status_path, build_sweep_status(def.name, facts, entries_from(shards),
                                      done));
  StatusThread status_thread{
      &board, std::thread([&board, &facts, &status_path, &def] {
        status_writer_loop(board, facts, status_path, def.name);
      })};

  for (;;) {
    bool all_complete = true;
    for (Shard& shard : shards) {
      if (shard.complete) continue;
      all_complete = false;

      int status = 0;
      const pid_t reaped = waitpid(shard.pid, &status, WNOHANG);
      COBRA_CHECK_MSG(reaped >= 0, "waitpid failed: "
                                       << std::strerror(errno));
      if (reaped == shard.pid) {
        shard.pid = -1;
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
          // Exit 0 promises a fully journaled slice; trust but verify —
          // a worker that lied (or raced a deleted journal) respawns.
          const auto [header, entries] =
              Journal::read(shard.journal_path);
          if (entries.size() == shard.cells) {
            shard.complete = true;
            if (config.log) {
              *config.log << "[sweep] shard " << shard.index << "/" << k
                          << " complete (" << shard.cells << " cells)\n";
            }
            continue;
          }
          respawn(shard, "exited cleanly with an incomplete journal");
        } else {
          respawn(shard, describe_exit(status));
        }
        continue;
      }

      // Worker is alive: journal growth is its heartbeat. A worker that
      // neither finishes cells nor starts new ones within the timeout is
      // wedged (deadlock, livelock, stuck I/O) and gets reassigned.
      std::error_code ec;
      const auto size = fs::file_size(shard.journal_path, ec);
      if (!ec && size != shard.last_size) {
        shard.last_size = size;
        shard.last_progress = Clock::now();
      } else if (shard.timeout_s > 0 &&
                 Clock::now() - shard.last_progress >
                     std::chrono::duration<double>(shard.timeout_s)) {
        kill(shard.pid, SIGKILL);
        waitpid(shard.pid, &status, 0);
        shard.pid = -1;
        std::ostringstream os;
        os << "wedged (no journal growth for " << std::fixed
           << std::setprecision(1) << shard.timeout_s
           << " s; SIGKILLed)";
        ++shard.wedges;
        // Backoff: if this was an honest long cell, the doubled window
        // lets the respawn finish it instead of draining the budget.
        shard.timeout_s *= 2;
        respawn(shard, os.str());
      }
    }
    publish();
    if (all_complete) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(config.poll_interval_s));
  }
  reaper.disarmed = true;  // nothing left alive to reap
  {
    // Stop the status thread before the final snapshot so the two writers
    // never interleave on the status file.
    util::MutexLock lock(board.mu);
    board.stop = true;
  }
  board.cv.notify_all();
  if (status_thread.thread.joinable()) status_thread.thread.join();
  write_sweep_status(
      status_path, build_sweep_status(def.name, facts, entries_from(shards),
                                      done));  // final: every shard complete

  if (config.log) {
    *config.log << "[sweep] all " << k << " shards complete; merging\n";
  }

  SupervisorResult result;
  result.workers = k;
  result.costs_path = costs;
  for (const Shard& shard : shards) {
    result.shards.push_back(
        ShardOutcome{shard.cells, shard.restarts, shard.wedges});
    result.restarts_total += shard.restarts;
    result.wedges_total += shard.wedges;
  }
  result.merge = merge_experiment(def, config.out_dir, config.log);
  return result;
}

}  // namespace cobra::runner
