// Supervised distributed sweeps: kill-one-worker / reassign / auto-merge
// round trips byte-compared against an unsharded run, weighted-slice
// balance properties, and restart-budget exhaustion.
//
// This binary is its own worker fleet: invoked as `<self> run ...` it
// registers the synthetic experiment and hands over to the cobra CLI
// (see main() at the bottom), so supervise_experiment() can fork/exec it
// exactly like the real `cobra` binary — hermetically, with cells whose
// rows are a deterministic function of (seed, cell).
#include "runner/supervisor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "graph/spec.hpp"
#include "rng/stream.hpp"
#include "runner/cli.hpp"
#include "runner/journal.hpp"
#include "runner/layout.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "runner/telemetry.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::runner {
namespace {

namespace fs = std::filesystem;

constexpr int kCells = 8;
constexpr char kExperiment[] = "synthetic_sup";

// Worker-side fault injection for the wedge test: when this env var
// points at a path and the marker file does not exist yet, cell c0
// creates it and then hangs far past any test timeout — so the cell
// hangs exactly once, and the respawned worker sails through.
constexpr char kHangEnv[] = "COBRA_SYNTH_HANG_ONCE";

// Makes cell c0 honestly slow (sleeps this many milliseconds on every
// run) — the discriminator between "long cell" and "wedged worker".
constexpr char kSlowEnv[] = "COBRA_SYNTH_SLOW_MS";

ExperimentDef make_synthetic() {
  ExperimentDef def;
  def.name = kExperiment;
  def.description = "deterministic two-table supervisor test experiment";
  def.tables = {
      {"synthetic_sup_main", "main table", {"cell", "i", "value"}},
      {"synthetic_sup_aux", "aux table", {"cell", "j"}}};
  def.cells = [] {
    std::vector<CellDef> cells;
    for (int i = 0; i < kCells; ++i) {
      std::string id = "c";
      id += std::to_string(i);
      cells.push_back(
          {id, i < 4 ? "first" : "second",
           [i, id](CellContext& ctx) {
             if (i == 0) {
               const std::string marker =
                   util::env_string(kHangEnv, "");
               if (!marker.empty() && !fs::exists(marker)) {
                 std::ofstream(marker) << "hanging\n";
                 std::this_thread::sleep_for(std::chrono::seconds(60));
               }
               const auto slow_ms = util::env_int(kSlowEnv, 0);
               if (slow_ms > 0) {
                 std::this_thread::sleep_for(
                     std::chrono::milliseconds(slow_ms));
               }
             }
             const std::uint64_t seed = util::global_seed();
             const auto value = rng::derive_seed(seed, i);
             ctx.row().add(id)
                 .add(static_cast<std::int64_t>(i))
                 .add(static_cast<double>(value % 1000) / 7.0, 2);
             ctx.table(1);
             for (int j = 0; j < i % 3; ++j) {
               ctx.row().add(id).add(static_cast<std::int64_t>(j));
             }
           }});
    }
    return cells;
  };
  return def;
}

constexpr char kSpecExperiment[] = "spec_sup";

// A miniature of the real `workload` experiment: cells come from the
// --graphs/COBRA_GRAPHS spec list, rows derive from the graph fingerprint
// — so a sweep whose supervisor pre-baked the specs to .cgr files (and
// whose workers therefore mmap them via file: specs) must be
// byte-identical to the in-process reference run.
ExperimentDef make_spec_driven() {
  ExperimentDef def;
  def.name = kSpecExperiment;
  def.description = "spec-driven supervisor test experiment";
  def.uses_graph_specs = true;
  def.tables = {
      {"spec_sup_main", "per-graph rows", {"graph", "n", "m", "value"}}};
  def.cells = [] {
    std::vector<CellDef> cells;
    for (const std::string& spec :
         graph::split_graph_specs(util::graphs())) {
      const std::string label = graph::graph_spec_label(spec);
      cells.push_back(
          {label, label, [spec, label](CellContext& ctx) {
             const auto g = graph::shared_graph(spec);
             const auto value =
                 rng::derive_seed(util::global_seed(), g->fingerprint());
             ctx.row().add(label)
                 .add(static_cast<std::uint64_t>(g->num_vertices()))
                 .add(g->num_edges())
                 .add(static_cast<double>(value % 1000) / 7.0, 2);
           }});
    }
    return cells;
  };
  return def;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class SupervisorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_seed_override(4242);
    dir_ = fs::path(::testing::TempDir()) /
           ("supervisor_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()
                    ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    std::error_code ec;
    self_ = fs::read_symlink("/proc/self/exe", ec).string();
    ASSERT_FALSE(ec) << ec.message();
  }
  void TearDown() override {
    util::clear_env_overrides();
    fs::remove_all(dir_);
  }

  /// The unsharded in-process reference run (console off).
  void run_reference() {
    SweepConfig config;
    config.out_dir = (dir_ / "full").string();
    config.console = false;
    run_experiment(make_synthetic(), config);
  }

  SupervisorConfig config(const std::string& sub, int workers) {
    SupervisorConfig c;
    c.out_dir = (dir_ / sub).string();
    c.workers = workers;
    c.worker_binary = self_;
    c.poll_interval_s = 0.01;
    c.log = &log_;
    return c;
  }

  void expect_byte_identical(const std::string& sub) {
    for (const char* table :
         {"synthetic_sup_main.csv", "synthetic_sup_aux.csv"}) {
      EXPECT_EQ(slurp((dir_ / "full" / table).string()),
                slurp((dir_ / sub / table).string()))
          << sub << " " << table;
    }
  }

  fs::path dir_;
  std::string self_;
  std::ostringstream log_;
};

TEST_F(SupervisorTest, SupervisedSweepMatchesUnshardedRun) {
  run_reference();
  const SupervisorResult result =
      supervise_experiment(make_synthetic(), config("swept", 3));
  EXPECT_EQ(result.workers, 3);
  EXPECT_EQ(result.restarts_total, 0);
  EXPECT_EQ(result.merge.shard_count, 3);
  EXPECT_EQ(result.merge.rows_per_table,
            (std::vector<std::size_t>{8, 7}));
  expect_byte_identical("swept");
  // The merge archived the cost model for weighted re-sharding.
  EXPECT_TRUE(fs::exists(
      layout::costs((dir_ / "swept").string(), kExperiment)));
}

TEST_F(SupervisorTest, KilledWorkerIsReassignedAndMergeIsByteIdentical) {
  run_reference();
  SupervisorConfig c = config("killed", 3);
  c.inject_kill_shard = 2;  // SIGKILL after its first journaled cell
  const SupervisorResult result =
      supervise_experiment(make_synthetic(), c);
  EXPECT_GE(result.restarts_total, 1);
  EXPECT_GE(result.shards[1].restarts, 1);
  EXPECT_NE(log_.str().find("killed by signal 9"), std::string::npos)
      << log_.str();
  EXPECT_NE(log_.str().find("respawning shard 2/3"), std::string::npos)
      << log_.str();
  expect_byte_identical("killed");
  // The respawned worker resumed the journal instead of restarting it:
  // the shard's journal holds its full slice exactly once.
  const auto [header, entries] = Journal::read(
      layout::journal((dir_ / "killed").string(), kExperiment, 2, 3));
  EXPECT_EQ(entries.size(),
            shard_slice(kCells, 2, 3).size());
}

TEST_F(SupervisorTest, WedgedWorkerIsKilledAndReassigned) {
  run_reference();  // before arming the hang, which cell c0 checks
  const std::string marker = (dir_ / "hang.marker").string();
  ASSERT_EQ(setenv(kHangEnv, marker.c_str(), 1), 0);
  SupervisorConfig c = config("wedged", 2);
  c.heartbeat_timeout_s = 1.0;
  c.max_restarts = 5;
  SupervisorResult result;
  try {
    result = supervise_experiment(make_synthetic(), c);
  } catch (...) {
    unsetenv(kHangEnv);
    throw;
  }
  unsetenv(kHangEnv);
  EXPECT_TRUE(fs::exists(marker));  // the hang really happened
  EXPECT_GE(result.restarts_total, 1);
  EXPECT_NE(log_.str().find("wedged"), std::string::npos) << log_.str();
  expect_byte_identical("wedged");
}

TEST_F(SupervisorTest, RestartBudgetExhaustionAbortsWithTheWorkerLog) {
  // Workers run an experiment name this binary's registry does not have,
  // so every spawn exits 2 immediately and the budget drains.
  ExperimentDef def = make_synthetic();
  def.name = "not_registered_anywhere";
  SupervisorConfig c = config("budget", 2);
  c.max_restarts = 1;
  try {
    supervise_experiment(def, c);
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("giving up"), std::string::npos) << what;
    EXPECT_NE(what.find("worker log"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown experiment"), std::string::npos) << what;
  }
}

TEST_F(SupervisorTest, WorkersBeyondCellCountGetEmptySlicesAndComplete) {
  run_reference();
  const SupervisorResult result =
      supervise_experiment(make_synthetic(), config("sparse", 10));
  EXPECT_EQ(result.restarts_total, 0);
  EXPECT_EQ(result.shards[9].cells, 0u);
  expect_byte_identical("sparse");
}

TEST_F(SupervisorTest, WeightedCostsSweepStaysByteIdentical) {
  run_reference();
  // A heavy-tailed cost model: c0 dwarfs everything else, so LPT must
  // isolate it while round-robin would pack 4 cells onto its shard.
  const std::string costs = (dir_ / "model.costs").string();
  {
    std::vector<JournalEntry> entries;
    for (int i = 0; i < kCells; ++i) {
      // Two steps: GCC 12's -Wrestrict misfires on "c" + to_string(i).
      JournalEntry entry;
      entry.cell_id = "c";
      entry.cell_id += std::to_string(i);
      entry.wall_us = i == 0 ? 100000u : 10u;
      entries.push_back(std::move(entry));
    }
    write_costs_file(costs, entries);
  }
  const auto cells = make_synthetic().cells();
  const auto heavy = slice_for(cells, 1, 2, costs);
  const auto rest = slice_for(cells, 2, 2, costs);
  // One of the two shards holds exactly {c0}; the other holds the rest.
  const auto& with_c0 =
      std::find(heavy.begin(), heavy.end(), 0u) != heavy.end() ? heavy
                                                               : rest;
  EXPECT_EQ(with_c0, (std::vector<std::size_t>{0}));
  EXPECT_EQ(heavy.size() + rest.size(), cells.size());

  SupervisorConfig c = config("weighted", 2);
  c.costs_path = costs;
  const SupervisorResult result =
      supervise_experiment(make_synthetic(), c);
  EXPECT_EQ(result.costs_path, costs);
  expect_byte_identical("weighted");
}

TEST_F(SupervisorTest, SlowCellWithCostModelIsNotFalselyDeclaredWedged) {
  run_reference();  // env unset: the reference run stays fast
  // The model knows c0 is heavy (3 s), so the per-shard wedge threshold
  // is floored at 3x that — far above the 0.4 s base timeout that would
  // otherwise kill the honest 1.2 s cell on every respawn until the
  // budget drained and the sweep aborted.
  const std::string costs = (dir_ / "slow.costs").string();
  {
    std::vector<JournalEntry> entries;
    for (int i = 0; i < kCells; ++i) {
      // Two steps: GCC 12's -Wrestrict misfires on "c" + to_string(i).
      JournalEntry entry;
      entry.cell_id = "c";
      entry.cell_id += std::to_string(i);
      entry.wall_us = i == 0 ? 3'000'000u : 10u;
      entries.push_back(std::move(entry));
    }
    write_costs_file(costs, entries);
  }
  ASSERT_EQ(setenv(kSlowEnv, "1200", 1), 0);
  SupervisorConfig c = config("slow", 2);
  c.costs_path = costs;
  c.heartbeat_timeout_s = 0.4;
  c.max_restarts = 1;
  SupervisorResult result;
  try {
    result = supervise_experiment(make_synthetic(), c);
  } catch (...) {
    unsetenv(kSlowEnv);
    throw;
  }
  unsetenv(kSlowEnv);
  EXPECT_EQ(result.restarts_total, 0);
  expect_byte_identical("slow");
}

TEST_F(SupervisorTest, MissingCostsFileFallsBackToRoundRobin) {
  run_reference();
  SupervisorConfig c = config("fallback", 2);
  c.costs_path = (dir_ / "never_written.costs").string();
  const SupervisorResult result =
      supervise_experiment(make_synthetic(), c);
  EXPECT_TRUE(result.costs_path.empty());
  EXPECT_NE(log_.str().find("round-robin"), std::string::npos)
      << log_.str();
  expect_byte_identical("fallback");
}

TEST_F(SupervisorTest, RefusesAnOutDirWithJournalsOfAnotherShardCount) {
  // A plain unsharded run leaves <exp>.1of1.journal behind; sweeping the
  // same directory at -j 2 must refuse up front, not burn the whole
  // sweep and fail in the final merge's shard-count check.
  SweepConfig ref;
  ref.out_dir = (dir_ / "reused").string();
  ref.console = false;
  run_experiment(make_synthetic(), ref);

  try {
    supervise_experiment(make_synthetic(), config("reused", 2));
    FAIL() << "expected CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("different shard count"), std::string::npos)
        << what;
    EXPECT_NE(what.find("1of1.journal"), std::string::npos) << what;
    EXPECT_NE(what.find("--out-dir"), std::string::npos) << what;
  }
  // No worker ever started, so nothing was respawned or merged.
  EXPECT_EQ(log_.str().find("worker pid"), std::string::npos);

  // Matching shard counts are not conflicts: re-sweeping the same
  // directory at the same -j resumes the completed journals and merges.
  run_reference();
  const SupervisorResult again =
      supervise_experiment(make_synthetic(), config("resweep", 2));
  EXPECT_EQ(again.restarts_total, 0);
  supervise_experiment(make_synthetic(), config("resweep", 2));
  expect_byte_identical("resweep");
}

TEST_F(SupervisorTest, StrayShardLikeJournalIsIgnoredEverywhere) {
  // A finished unsharded run beside a file that only looks like a shard
  // journal (a renamed stale one): the merge, the fleet view and the
  // sweep's conflict check all read the directory through one parser, so
  // all three see the same single 1/1 run.
  SweepConfig ref;
  ref.out_dir = (dir_ / "stray").string();
  ref.console = false;
  run_experiment(make_synthetic(), ref);
  const std::string journal = layout::journal(ref.out_dir, kExperiment, 1, 1);
  fs::copy_file(journal, ref.out_dir + "/" + kExperiment + ".1of2x.journal");

  const MergeResult merged =
      merge_experiment(make_synthetic(), ref.out_dir, nullptr);
  EXPECT_EQ(merged.shard_count, 1);
  EXPECT_EQ(merged.cells, static_cast<std::size_t>(kCells));

  std::ostringstream top;
  EXPECT_EQ(render_fleet_status(ref.out_dir, top), 1u);
  EXPECT_NE(top.str().find("1 shard,"), std::string::npos) << top.str();
  EXPECT_NE(top.str().find("shard 1/1:"), std::string::npos) << top.str();

  const SupervisorResult swept =
      supervise_experiment(make_synthetic(), config("stray", 1));
  EXPECT_EQ(swept.merge.shard_count, 1);
  EXPECT_EQ(swept.restarts_total, 0);
  run_reference();
  expect_byte_identical("stray");
}

TEST_F(SupervisorTest, SpecDrivenSweepPrebakesGraphsForItsWorkers) {
  util::set_graphs_override("cycle_12,petersen,torus_3_d2");
  SweepConfig ref;
  ref.out_dir = (dir_ / "full").string();
  ref.console = false;
  run_experiment(make_spec_driven(), ref);

  const SupervisorResult result =
      supervise_experiment(make_spec_driven(), config("spec", 4));
  EXPECT_EQ(result.restarts_total, 0);
  EXPECT_EQ(result.merge.rows_per_table, (std::vector<std::size_t>{3}));
  // The supervisor baked each synthetic spec to one shared .cgr and the
  // worker command line references them as file: specs — all four
  // workers mmap the same on-disk CSRs.
  EXPECT_TRUE(fs::exists(dir_ / "spec" / "graphs" / "cycle_12.cgr"));
  EXPECT_TRUE(fs::exists(dir_ / "spec" / "graphs" / "petersen.cgr"));
  EXPECT_TRUE(fs::exists(dir_ / "spec" / "graphs" / "torus_3_d2.cgr"));
  EXPECT_NE(log_.str().find("pre-baked graph cycle_12"),
            std::string::npos)
      << log_.str();
  // Fingerprint-derived rows: baked file: sources reproduce the
  // in-process reference bit for bit.
  EXPECT_EQ(slurp((dir_ / "full" / "spec_sup_main.csv").string()),
            slurp((dir_ / "spec" / "spec_sup_main.csv").string()));
}

TEST_F(SupervisorTest, RejectsInvalidConfigurations) {
  SupervisorConfig bad_workers = config("invalid", 0);
  EXPECT_THROW(supervise_experiment(make_synthetic(), bad_workers),
               util::CheckError);
  SupervisorConfig bad_inject = config("invalid", 2);
  bad_inject.inject_kill_shard = 3;
  EXPECT_THROW(supervise_experiment(make_synthetic(), bad_inject),
               util::CheckError);
  SupervisorConfig no_binary = config("invalid", 2);
  no_binary.worker_binary.clear();
  EXPECT_THROW(supervise_experiment(make_synthetic(), no_binary),
               util::CheckError);
}

// -------- weighted_shard_slice unit properties --------

TEST(WeightedShardSlice, PartitionsDisjointlyInEnumerationOrder) {
  const std::vector<std::uint64_t> costs = {7, 3, 9, 1, 4, 4, 2, 8, 6, 5};
  std::vector<int> seen(costs.size(), 0);
  for (int s = 1; s <= 3; ++s) {
    const auto slice = weighted_shard_slice(costs, s, 3);
    EXPECT_TRUE(std::is_sorted(slice.begin(), slice.end()));
    for (const std::size_t i : slice) ++seen[i];
    // Deterministic: the same call yields the same slice.
    EXPECT_EQ(slice, weighted_shard_slice(costs, s, 3));
  }
  EXPECT_EQ(seen, std::vector<int>(costs.size(), 1));
}

TEST(WeightedShardSlice, KeepsTheLptBalanceGuarantee) {
  // Heavy-tailed costs: LPT keeps max load <= mean + max cost, while
  // round-robin by enumeration position piles extras onto shard 1.
  const std::vector<std::uint64_t> costs = {1000, 1, 1, 1, 1, 1, 1, 1};
  const auto load = [&costs](const std::vector<std::size_t>& slice) {
    std::uint64_t total = 0;
    for (const std::size_t i : slice) total += costs[i];
    return total;
  };
  const std::uint64_t sum =
      std::accumulate(costs.begin(), costs.end(), std::uint64_t{0});
  std::uint64_t weighted_max = 0, round_robin_max = 0;
  for (int s = 1; s <= 2; ++s) {
    weighted_max =
        std::max(weighted_max, load(weighted_shard_slice(costs, s, 2)));
    round_robin_max =
        std::max(round_robin_max, load(shard_slice(costs.size(), s, 2)));
  }
  EXPECT_LE(weighted_max, sum / 2 + 1000);  // mean load + max cost
  EXPECT_LT(weighted_max, round_robin_max);
  EXPECT_EQ(weighted_max, 1000u);  // the heavy cell ends up alone
}

TEST(WeightedShardSlice, SingleShardOwnsEverything) {
  const std::vector<std::uint64_t> costs = {5, 2, 9};
  EXPECT_EQ(weighted_shard_slice(costs, 1, 1),
            (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_THROW(weighted_shard_slice(costs, 2, 1), util::CheckError);
}

}  // namespace
}  // namespace cobra::runner

/// Worker mode: `<test binary> run synthetic_sup --shard i/k ...` makes
/// this binary behave like the `cobra` CLI over the synthetic registry,
/// so the supervisor tests can spawn real worker processes hermetically.
int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "run") {
    cobra::runner::Registry::instance().add(
        cobra::runner::make_synthetic());
    cobra::runner::Registry::instance().add(
        cobra::runner::make_spec_driven());
    return cobra::runner::cli_main(argc - 1, argv + 1);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
