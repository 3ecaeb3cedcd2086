// Sharded sweep execution: shard ∪ = full sweep, kill-then-resume equals
// an uninterrupted run byte for byte, torn fragments are reconciled, and
// merge validates its inputs. Uses a synthetic two-table experiment whose
// rows are a deterministic function of (seed, cell), mirroring the
// contract the real cells obey.
#include "runner/sweep.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rng/stream.hpp"
#include "runner/journal.hpp"
#include "runner/layout.hpp"
#include "runner/registry.hpp"
#include "util/assert.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"

namespace cobra::runner {
namespace {

namespace fs = std::filesystem;

constexpr int kCells = 7;

ExperimentDef make_test_experiment() {
  ExperimentDef def;
  def.name = "synthetic";
  def.description = "deterministic two-table test experiment";
  def.tables = {
      {"synthetic_main", "main table", {"cell", "i", "value"}},
      {"synthetic_aux", "aux table", {"cell", "j"}}};
  def.cells = [] {
    std::vector<CellDef> cells;
    for (int i = 0; i < kCells; ++i) {
      // Built in two steps: GCC 12's -Wrestrict misfires on
      // "c" + std::to_string(i) inlined through std::function.
      std::string id = "c";
      id += std::to_string(i);
      cells.push_back(
          {id, i < 4 ? "first" : "second",
           [i, id](CellContext& ctx) {
             const std::uint64_t seed = util::global_seed();
             const auto value = rng::derive_seed(seed, i);
             ctx.row().add(id)
                 .add(static_cast<std::int64_t>(i))
                 .add(static_cast<double>(value % 1000) / 7.0, 2);
             // Variable-length aux output exercises per-cell row counts.
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

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

class SweepTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_seed_override(12345);
    dir_ = fs::path(::testing::TempDir()) /
           ("sweep_" +
            std::string(
                ::testing::UnitTest::GetInstance()->current_test_info()
                    ->name()));
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  void TearDown() override {
    util::clear_env_overrides();
    fs::remove_all(dir_);
  }

  SweepConfig config(const std::string& sub, int i = 1, int k = 1) {
    SweepConfig c;
    c.out_dir = (dir_ / sub).string();
    c.shard_index = i;
    c.shard_count = k;
    c.console = false;
    return c;
  }

  fs::path dir_;
};

TEST_F(SweepTest, UnshardedRunWritesCanonicalCsvs) {
  const ExperimentDef def = make_test_experiment();
  const SweepResult result = run_experiment(def, config("full"));
  EXPECT_EQ(result.cells_run, static_cast<std::size_t>(kCells));
  EXPECT_TRUE(result.complete());

  const auto main_table =
      util::read_csv((dir_ / "full/synthetic_main.csv").string());
  EXPECT_EQ(main_table.header,
            (std::vector<std::string>{"cell", "i", "value"}));
  EXPECT_EQ(main_table.num_rows(), static_cast<std::size_t>(kCells));
  // Aux rows: sum of i % 3 over 0..6 = 0+1+2+0+1+2+0.
  const auto aux_table =
      util::read_csv((dir_ / "full/synthetic_aux.csv").string());
  EXPECT_EQ(aux_table.num_rows(), 6u);
}

TEST_F(SweepTest, ShardsPartitionTheSweepAndMergeRestoresByteIdentity) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("full"));

  for (const int k : {2, 4}) {
    const std::string sub = "k" + std::to_string(k);
    std::size_t total = 0;
    for (int i = 1; i <= k; ++i) {
      const SweepResult r = run_experiment(def, config(sub, i, k));
      EXPECT_TRUE(r.complete());
      total += r.cells_run;
    }
    EXPECT_EQ(total, static_cast<std::size_t>(kCells));

    const MergeResult merged =
        merge_experiment(def, (dir_ / sub).string(), nullptr);
    EXPECT_EQ(merged.shard_count, k);
    EXPECT_EQ(merged.rows_per_table,
              (std::vector<std::size_t>{7, 6}));
    for (const char* table : {"synthetic_main.csv", "synthetic_aux.csv"}) {
      EXPECT_EQ(slurp((dir_ / "full" / table).string()),
                slurp((dir_ / sub / table).string()))
          << "k=" << k << " " << table;
    }
  }
}

TEST_F(SweepTest, InterruptedShardResumesWithoutRerunningJournaledCells) {
  const ExperimentDef def = make_test_experiment();
  // Uninterrupted reference shard.
  run_experiment(def, config("ref", 2, 2));

  // Interrupted run: one cell at a time, resuming each time.
  SweepConfig chunked = config("chunked", 2, 2);
  chunked.resume = true;
  chunked.max_cells = 1;
  std::size_t runs = 0;
  for (;;) {
    const SweepResult r = run_experiment(def, chunked);
    EXPECT_LE(r.cells_run, 1u);
    runs += r.cells_run;
    // Cells journaled by earlier invocations are skipped, never re-run.
    EXPECT_EQ(r.cells_skipped, runs - r.cells_run);
    if (r.complete()) break;
  }
  EXPECT_EQ(runs, shard_slice(kCells, 2, 2).size());

  for (const char* table :
       {"synthetic_main.shard2of2.csv", "synthetic_aux.shard2of2.csv"}) {
    EXPECT_EQ(slurp((dir_ / "ref" / table).string()),
              slurp((dir_ / "chunked" / table).string()))
        << table;
  }
  // Journals agree too (same header, same cells in the same order).
  const auto [ref_header, ref_entries] =
      Journal::read((dir_ / "ref/synthetic.2of2.journal").string());
  const auto [chunk_header, chunk_entries] =
      Journal::read((dir_ / "chunked/synthetic.2of2.journal").string());
  EXPECT_EQ(ref_header, chunk_header);
  ASSERT_EQ(ref_entries.size(), chunk_entries.size());
  for (std::size_t i = 0; i < ref_entries.size(); ++i) {
    EXPECT_EQ(ref_entries[i].cell_id, chunk_entries[i].cell_id);
    EXPECT_EQ(ref_entries[i].rows_per_table,
              chunk_entries[i].rows_per_table);
  }
}

TEST_F(SweepTest, TornFragmentRowsAreDroppedOnResume) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("ref"));

  // Run one cell, then simulate a crash after the second cell's rows were
  // flushed but before it was journaled: its rows sit at the fragment
  // tail with no journal line.
  SweepConfig torn = config("torn");
  torn.max_cells = 1;
  run_experiment(def, torn);
  {
    std::ofstream out((dir_ / "torn/synthetic_main.csv").string(),
                      std::ios::app);
    out << "c1,1,999.0\n";  // orphaned rows of the unjournaled cell
  }

  SweepConfig resume = config("torn");
  resume.resume = true;
  const SweepResult r = run_experiment(def, resume);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.cells_skipped, 1u);

  EXPECT_EQ(slurp((dir_ / "ref/synthetic_main.csv").string()),
            slurp((dir_ / "torn/synthetic_main.csv").string()));
  EXPECT_EQ(slurp((dir_ / "ref/synthetic_aux.csv").string()),
            slurp((dir_ / "torn/synthetic_aux.csv").string()));
}

TEST_F(SweepTest, TornJournalLineMeansCellReruns) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("ref"));

  SweepConfig partial = config("tornj");
  partial.max_cells = 2;
  run_experiment(def, partial);

  // Simulate a crash mid-write of the second journal line: cut it inside
  // the counts list (the "ok" terminator is lost). The cell's rows are
  // already in the fragments and must be dropped with it.
  const std::string jpath = (dir_ / "tornj/synthetic.1of1.journal").string();
  std::string text = slurp(jpath);
  const auto last_c2 = text.rfind("cell\tc1");
  ASSERT_NE(last_c2, std::string::npos);
  const auto tab = text.find('\t', last_c2 + 8);  // after "cell\tc1\t"
  ASSERT_NE(tab, std::string::npos);
  {
    std::ofstream out(jpath, std::ios::trunc | std::ios::binary);
    out << text.substr(0, tab);  // "...cell\tc1\t<counts cut, no newline>"
  }

  SweepConfig resume = config("tornj");
  resume.resume = true;
  const SweepResult r = run_experiment(def, resume);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.cells_skipped, 1u);  // only c0 survives the torn journal
  EXPECT_EQ(r.cells_run, static_cast<std::size_t>(kCells) - 1);

  for (const char* table : {"synthetic_main.csv", "synthetic_aux.csv"}) {
    EXPECT_EQ(slurp((dir_ / "ref" / table).string()),
              slurp((dir_ / "tornj" / table).string()))
        << table;
  }
  // The repaired journal must parse cleanly (newline restored before the
  // appended records).
  const auto [header, entries] = Journal::read(jpath);
  EXPECT_EQ(entries.size(), static_cast<std::size_t>(kCells));
}

TEST_F(SweepTest, ScaleWithManyDecimalsRoundTripsThroughTheJournal) {
  util::set_scale_override(0.0123456789);
  const ExperimentDef def = make_test_experiment();
  SweepConfig partial = config("precise");
  partial.max_cells = 1;
  run_experiment(def, partial);

  SweepConfig resume = config("precise");
  resume.resume = true;
  const SweepResult r = run_experiment(def, resume);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.cells_skipped, 1u);
}

TEST_F(SweepTest, ResumeRefusesAForeignJournal) {
  const ExperimentDef def = make_test_experiment();
  SweepConfig first = config("mismatch");
  first.max_cells = 1;
  run_experiment(def, first);

  util::set_seed_override(999);  // different run configuration
  SweepConfig resume = config("mismatch");
  resume.resume = true;
  EXPECT_THROW(run_experiment(def, resume), util::CheckError);
}

TEST_F(SweepTest, ResumeRefusesAKernelThreadsMismatch) {
  // Kernel lanes never change results, but the journal still pins them:
  // a resumed shard must reproduce the original run's configuration (the
  // sweep supervisor relies on this to pass --kernel-threads to respawned
  // workers).
  const ExperimentDef def = make_test_experiment();
  util::set_kernel_threads_override(2);
  SweepConfig first = config("ktmismatch");
  first.max_cells = 1;
  run_experiment(def, first);

  util::set_kernel_threads_override(4);
  SweepConfig resume = config("ktmismatch");
  resume.resume = true;
  EXPECT_THROW(run_experiment(def, resume), util::CheckError);

  // Back to the journaled lane count, the resume completes.
  util::set_kernel_threads_override(2);
  const SweepResult r = run_experiment(def, resume);
  EXPECT_TRUE(r.complete());
  EXPECT_EQ(r.cells_skipped, 1u);
}

TEST_F(SweepTest, FreshRunIgnoresAndReplacesAnOldJournal) {
  const ExperimentDef def = make_test_experiment();
  SweepConfig partial = config("restart");
  partial.max_cells = 2;
  run_experiment(def, partial);

  // No --resume: start over and complete.
  const SweepResult r = run_experiment(def, config("restart"));
  EXPECT_EQ(r.cells_run, static_cast<std::size_t>(kCells));
  EXPECT_EQ(r.cells_skipped, 0u);
  const auto table =
      util::read_csv((dir_ / "restart/synthetic_main.csv").string());
  EXPECT_EQ(table.num_rows(), static_cast<std::size_t>(kCells));
}

TEST_F(SweepTest, MergeRefusesIncompleteOrMissingShards) {
  const ExperimentDef def = make_test_experiment();
  SweepConfig partial = config("incomplete", 1, 2);
  partial.max_cells = 1;
  run_experiment(def, partial);
  run_experiment(def, config("incomplete", 2, 2));
  EXPECT_THROW(merge_experiment(def, (dir_ / "incomplete").string(),
                                nullptr),
               util::CheckError);

  run_experiment(def, config("missing", 1, 2));
  // Shard 2/2 never ran.
  EXPECT_THROW(merge_experiment(def, (dir_ / "missing").string(), nullptr),
               util::CheckError);
}

TEST_F(SweepTest, MergeRefusesFragmentsItsJournalsDoNotAccountFor) {
  const ExperimentDef def = make_test_experiment();
  for (const char* sub : {"extra", "short"}) {
    run_experiment(def, config(sub, 1, 2));
    run_experiment(def, config(sub, 2, 2));
  }
  // One row more than the journal records, and one fewer.
  const std::string extra =
      layout::fragment((dir_ / "extra").string(), "synthetic_main", 2, 2);
  std::ofstream(extra, std::ios::app) << "c9,9,1.5\n";
  const std::string shortened =
      layout::fragment((dir_ / "short").string(), "synthetic_main", 2, 2);
  std::string text = slurp(shortened);
  text.erase(text.rfind('\n', text.size() - 2) + 1);
  std::ofstream(shortened, std::ios::trunc) << text;

  for (const auto& [sub, what] :
       {std::pair{"extra", "holds rows no journal entry accounts for"},
        std::pair{"short", "holds fewer rows than its journal records"}}) {
    try {
      merge_experiment(def, (dir_ / sub).string(), nullptr);
      ADD_FAILURE() << sub << ": merge accepted a tampered fragment";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find("shard2of2.csv"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST_F(SweepTest, JournalRecordsWallTimeAndMergeSummarizesIt) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("walltime", 1, 2));
  run_experiment(def, config("walltime", 2, 2));

  // Every journaled cell carries a wall-time field (since format v3);
  // trivial
  // cells may legitimately round to 0 µs, so only sanity is asserted.
  const auto [header, entries] =
      Journal::read((dir_ / "walltime/synthetic.1of2.journal").string());
  ASSERT_FALSE(entries.size() == 0);
  for (const JournalEntry& entry : entries) {
    EXPECT_LT(entry.wall_us, 10ull * 60 * 1000 * 1000) << entry.cell_id;
  }

  // `cobra merge` surfaces the cost summary built from those fields.
  std::ostringstream log;
  merge_experiment(def, (dir_ / "walltime").string(), &log);
  EXPECT_NE(log.str().find("cell wall time:"), std::string::npos)
      << log.str();
  EXPECT_NE(log.str().find("across 7 cells"), std::string::npos)
      << log.str();
}

/// Asserts `fn` throws CheckError and its message carries every one of
/// `needles` — corruption diagnostics must name the file, the line and
/// the offending token, not just fail.
template <typename Fn>
void expect_check_message(Fn fn, const std::vector<std::string>& needles) {
  try {
    fn();
    FAIL() << "expected util::CheckError";
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    for (const std::string& needle : needles) {
      EXPECT_NE(what.find(needle), std::string::npos)
          << "missing '" << needle << "' in: " << what;
    }
  }
}

TEST_F(SweepTest, OldJournalVersionsAreRefusedWithAnActionableMessage) {
  // A v2 journal is a stale-but-valid file, not garbage: the error names
  // the version found, the version required, and the remedy.
  const std::string path = (dir_ / "v2.journal").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv2\n"
        << "run\tsynthetic\t1/1\t12345\t1\treference\n"
        << "cell\tc0\t1,0\tok\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "v2", "v5", "re-run"});

  // v3 (pre kernel-threads header field) is retired the same way.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv3\n"
        << "run\tsynthetic\t1/1\t12345\t1\treference\n"
        << "cell\tc0\t1,0\t5\tok\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "v3", "v5", "re-run"});

  // v4 (with the retired engine header field) is retired the same way.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv4\n"
        << "run\tsynthetic\t1/1\t12345\t1\tauto\t1\n"
        << "cell\tc0\t1,0\t5\tok\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "v4", "v5", "re-run"});

  // An unknown (future?) version is reported as such, not as garbage.
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv9\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "v9", "unrecognised"});
}

TEST_F(SweepTest, TruncatedOrForeignHeadersFailWithThePath) {
  const std::string path = (dir_ / "broken.journal").string();
  { std::ofstream out(path, std::ios::trunc); }  // 0 bytes
  expect_check_message([&] { Journal::read(path); },
                       {path, "empty or truncated"});

  {
    std::ofstream out(path, std::ios::trunc);
    out << "not-a-journal,at,all\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 1", "not a cobra journal"});

  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv5\n";  // magic only, no run header
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "missing run header"});
}

TEST_F(SweepTest, GarbageHeaderFieldsFailWithLineAndToken) {
  const std::string path = (dir_ / "garbage.journal").string();
  const auto with_header = [&](const std::string& run_line) {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv5\n" << run_line << '\n';
  };

  // A corrupted shard spec must not silently become shard 0/0.
  with_header("run\tsynthetic\txof4\t12345\t1\t1");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "shard spec", "xof4"});
  with_header("run\tsynthetic\tx/4\t12345\t1\t1");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "shard index", "x"});
  with_header("run\tsynthetic\t5/4\t12345\t1\t1");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "5/4"});
  with_header("run\tsynthetic\t1/1\t12a45\t1\t1");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "seed", "12a45"});
  with_header("run\tsynthetic\t1/1\t12345\t-1\t1");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "scale", "-1"});
  with_header("run\tsynthetic\t1/1\t12345\t1\tx8");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "kernel threads", "x8"});
  with_header("run\tsynthetic\t1/1\t12345\t1\t0");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "kernel threads", "1..256"});
  with_header("run\tsynthetic\t1/1");
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 2", "malformed run header"});
}

TEST_F(SweepTest, CorruptCompletedCellRecordsFailLoudly) {
  // A line with the "ok" terminator claims to be complete, so garbage in
  // it is corruption (loud), not a torn write (silently skipped).
  const std::string path = (dir_ / "corrupt.journal").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv5\n"
        << "run\tsynthetic\t1/1\t12345\t1\t1\n"
        << "cell\tc0\t1x,0\t5\tok\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 3", "row count", "1x"});
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-journal\tv5\n"
        << "run\tsynthetic\t1/1\t12345\t1\t1\n"
        << "cell\tc0\t1,0\tfast\tok\n";
  }
  expect_check_message([&] { Journal::read(path); },
                       {path, "line 3", "wall time", "fast"});
}

TEST_F(SweepTest, JournalCreateReportsTheMkdirError) {
  // The parent "directory" is a regular file, so create_directories
  // fails — the message must carry the OS error, not a misleading
  // "cannot open journal".
  const std::string blocker = (dir_ / "blocker").string();
  {
    std::ofstream out(blocker);
    out << "file\n";
  }
  expect_check_message(
      [&] {
        Journal::create(blocker + "/sub/x.journal", JournalHeader{});
      },
      {"cannot create journal directory", blocker});
}

TEST_F(SweepTest, HeartbeatLinesAreWrittenAndSkippedByReaders) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("beats"));

  const std::string jpath = (dir_ / "beats/synthetic.1of1.journal").string();
  const std::string text = slurp(jpath);
  // One liveness marker per cell start, flushed before the cell body —
  // the supervisor's wedge detection watches the journal grow on them.
  std::size_t beats = 0;
  for (auto pos = text.find("heartbeat\t"); pos != std::string::npos;
       pos = text.find("heartbeat\t", pos + 1)) {
    ++beats;
  }
  EXPECT_EQ(beats, static_cast<std::size_t>(kCells));
  // Readers skip them: only "cell ... ok" records are journaled cells.
  const auto [header, entries] = Journal::read(jpath);
  EXPECT_EQ(entries.size(), static_cast<std::size_t>(kCells));
}

TEST_F(SweepTest, CompletedRunsArchiveTheCostModelAndItRoundTrips) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("costs"));

  const std::string path =
      layout::costs((dir_ / "costs").string(), "synthetic");
  ASSERT_TRUE(fs::exists(path));
  const auto costs = read_costs_file(path);
  EXPECT_EQ(costs.size(), static_cast<std::size_t>(kCells));
  EXPECT_TRUE(costs.count("c0"));

  // Weighted shards sliced by the archived model still merge to the
  // canonical bytes: slicing is a scheduling choice, never a result one.
  for (int i = 1; i <= 3; ++i) {
    SweepConfig c = config("costs_sharded", i, 3);
    c.costs_path = path;
    EXPECT_TRUE(run_experiment(def, c).complete());
  }
  merge_experiment(def, (dir_ / "costs_sharded").string(), nullptr);
  for (const char* table : {"synthetic_main.csv", "synthetic_aux.csv"}) {
    EXPECT_EQ(slurp((dir_ / "costs" / table).string()),
              slurp((dir_ / "costs_sharded" / table).string()))
        << table;
  }
}

TEST_F(SweepTest, MalformedCostFilesFailWithLineAndToken) {
  const std::string path = (dir_ / "bad.costs").string();
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-costs\tv1\ncell\tc0\tcheap\n";
  }
  expect_check_message([&] { read_costs_file(path); },
                       {path, "line 2", "cheap"});
  {
    std::ofstream out(path, std::ios::trunc);
    out << "cobra-costs\tv1\ncell\tc0\t5\ncell\tc0\t6\n";
  }
  expect_check_message([&] { read_costs_file(path); },
                       {path, "line 3", "duplicate", "c0"});
  {
    std::ofstream out(path, std::ios::trunc);
    out << "not a costs file\n";
  }
  expect_check_message([&] { read_costs_file(path); },
                       {path, "line 1"});
}

TEST_F(SweepTest, MergeRefusesMixedSeeds) {
  const ExperimentDef def = make_test_experiment();
  run_experiment(def, config("mixed", 1, 2));
  util::set_seed_override(54321);
  run_experiment(def, config("mixed", 2, 2));
  EXPECT_THROW(merge_experiment(def, (dir_ / "mixed").string(), nullptr),
               util::CheckError);
}

TEST_F(SweepTest, MaxCellsZeroRunsNothingButStaysResumable) {
  const ExperimentDef def = make_test_experiment();
  SweepConfig none = config("zero");
  none.max_cells = 0;
  const SweepResult r = run_experiment(def, none);
  EXPECT_EQ(r.cells_run, 0u);
  EXPECT_FALSE(r.complete());

  SweepConfig rest = config("zero");
  rest.resume = true;
  EXPECT_TRUE(run_experiment(def, rest).complete());
}

}  // namespace
}  // namespace cobra::runner
