// Run-level telemetry: sidecar record round trips, last-record-per-cell
// recovery semantics, sweep status snapshots, and the two end-to-end
// guarantees the metrics modes make — archives stay byte-identical no
// matter what `--metrics` is set to (collection never consumes
// randomness), and the archived sidecars are deterministic in content
// and order across shardings.
#include "runner/telemetry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/generators.hpp"
#include "rng/stream.hpp"
#include "runner/layout.hpp"
#include "runner/registry.hpp"
#include "runner/sweep.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"
#include "util/metrics.hpp"

namespace cobra::runner {
namespace {

namespace fs = std::filesystem;

CellMetricsRecord make_record() {
  CellMetricsRecord record;
  record.cell_id = "d=4";
  record.mode = "rounds";
  record.wall_us = 1234;
  util::MetricValue counter;
  counter.name = "kernel.rounds";
  counter.kind = util::MetricKind::kCounter;
  counter.value = 17;
  util::MetricValue gauge;
  gauge.name = "kernel.frontier_peak";
  gauge.kind = util::MetricKind::kGauge;
  gauge.value = 96;
  record.snapshot.values = {std::move(gauge), std::move(counter)};
  std::sort(record.snapshot.values.begin(), record.snapshot.values.end(),
            [](const auto& a, const auto& b) { return a.name < b.name; });
  record.rounds = {{3, 5, 4, 0}, {3, 11, 6, 1}};
  return record;
}

TEST(CellMetricsRecord, JsonlRoundTripIsByteIdentical) {
  const CellMetricsRecord record = make_record();
  const std::string line = record_to_jsonl(record);
  EXPECT_EQ(line.rfind("{\"v\":1,\"cell\":\"d=4\"", 0), 0u) << line;
  const CellMetricsRecord parsed = record_from_jsonl(line);
  EXPECT_EQ(parsed.cell_id, record.cell_id);
  EXPECT_EQ(parsed.mode, record.mode);
  EXPECT_EQ(parsed.wall_us, record.wall_us);
  ASSERT_EQ(parsed.rounds.size(), 2u);
  EXPECT_EQ(parsed.rounds[1].frontier, 11u);
  EXPECT_EQ(record_to_jsonl(parsed), line);

  // Empty sections are omitted, and still round-trip.
  CellMetricsRecord bare;
  bare.cell_id = "c0";
  bare.mode = "summary";
  const std::string bare_line = record_to_jsonl(bare);
  EXPECT_EQ(bare_line.find("metrics"), std::string::npos) << bare_line;
  EXPECT_EQ(bare_line.find("rounds\""), std::string::npos) << bare_line;
  EXPECT_EQ(record_to_jsonl(record_from_jsonl(bare_line)), bare_line);
}

TEST(CellMetricsRecord, ParserRejectsMalformedLines) {
  EXPECT_THROW(record_from_jsonl("{\"v\":9,\"cell\":\"c0\"}"),
               util::CheckError);
  EXPECT_THROW(record_from_jsonl("{\"v\":1}"), util::CheckError);  // no cell
  EXPECT_THROW(record_from_jsonl("{\"v\":1,\"cell\":\"c0\","
                                 "\"rounds\":[[1,2,3]]}"),  // 3-tuple
               util::CheckError);
  EXPECT_THROW(record_from_jsonl("not json"), util::CheckError);
}

TEST(MetricsSidecar, PathNaming) {
  EXPECT_EQ(layout::sidecar("out", "exp", 1, 1),
            "out/exp.metrics.jsonl");
  EXPECT_EQ(layout::sidecar("out", "exp", 2, 4),
            "out/exp.2of4.metrics.jsonl");
}

class TelemetryFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path(::testing::TempDir()) /
           ("telemetry_" +
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

  fs::path dir_;
};

TEST_F(TelemetryFileTest, SidecarKeepsTheLastRecordPerCell) {
  const std::string path = (dir_ / "x.metrics.jsonl").string();
  EXPECT_TRUE(read_metrics_sidecar(path).empty());  // missing file is fine

  CellMetricsRecord first = make_record();
  first.cell_id = "c0";
  first.wall_us = 1;
  CellMetricsRecord other = make_record();
  other.cell_id = "c1";
  CellMetricsRecord rerun = make_record();
  rerun.cell_id = "c0";
  rerun.wall_us = 2;  // the cell re-ran after a crash; this record wins
  append_metrics_record(path, first);
  append_metrics_record(path, other);
  append_metrics_record(path, rerun);

  const auto records = read_metrics_sidecar(path);
  ASSERT_EQ(records.size(), 2u);
  std::map<std::string, std::uint64_t> wall;
  for (const CellMetricsRecord& r : records) wall[r.cell_id] = r.wall_us;
  EXPECT_EQ(wall.at("c0"), 2u);
  EXPECT_EQ(wall.at("c1"), 1234u);

  // A corrupted line fails loudly, naming the file.
  {
    std::ofstream out(path, std::ios::app);
    out << "{\"v\":1,\"cell\":\n";
  }
  try {
    read_metrics_sidecar(path);
    FAIL() << "expected util::CheckError";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos)
        << e.what();
  }
}

TEST_F(TelemetryFileTest, OrderRecordsDedupsAndFollowsEnumeration) {
  std::vector<CellMetricsRecord> records;
  for (const char* id : {"c2", "c0", "stale", "c1", "c0"}) {
    CellMetricsRecord r;
    r.cell_id = id;
    r.wall_us = records.size();  // distinguish the two c0 records
    records.push_back(std::move(r));
  }
  const auto ordered =
      order_records(std::move(records), {"c0", "c1", "c2"});
  ASSERT_EQ(ordered.size(), 3u);  // "stale" dropped, c0 deduped
  EXPECT_EQ(ordered[0].cell_id, "c0");
  EXPECT_EQ(ordered[0].wall_us, 4u);  // the later duplicate won
  EXPECT_EQ(ordered[1].cell_id, "c1");
  EXPECT_EQ(ordered[2].cell_id, "c2");

  // write → read preserves the compacted order.
  const std::string path = (dir_ / "ordered.metrics.jsonl").string();
  write_metrics_sidecar(path, ordered);
  const auto reread = read_metrics_sidecar(path);
  ASSERT_EQ(reread.size(), 3u);
  EXPECT_EQ(reread[0].cell_id, "c0");
  EXPECT_EQ(reread[2].cell_id, "c2");
}

TEST_F(TelemetryFileTest, SweepStatusRoundTrips) {
  const std::string path = layout::sweep_status(dir_.string(), "exp");
  EXPECT_EQ(path, (dir_ / "exp.sweep.status").string());
  EXPECT_FALSE(read_sweep_status(path).has_value());  // missing file

  SweepStatus status;
  status.experiment = "exp";
  status.shard_count = 2;
  status.shards = {{1, 4242, 1, 0, "running", 3, 5},
                   {2, -1, 0, 0, "complete", 4, 4}};
  write_sweep_status(path, status);

  const auto read = read_sweep_status(path);
  ASSERT_TRUE(read.has_value());
  EXPECT_EQ(read->experiment, "exp");
  EXPECT_EQ(read->shard_count, 2);
  ASSERT_EQ(read->shards.size(), 2u);
  EXPECT_EQ(read->shards[0].pid, 4242);
  EXPECT_EQ(read->shards[0].restarts, 1);
  EXPECT_EQ(read->shards[0].state, "running");
  EXPECT_EQ(read->shards[0].cells_done, 3u);
  EXPECT_EQ(read->shards[0].cells_total, 5u);
  EXPECT_EQ(read->shards[1].pid, -1);
  EXPECT_EQ(read->shards[1].state, "complete");

  {
    std::ofstream out(path, std::ios::trunc);
    out << "not-a-status\tv1\n";
  }
  EXPECT_THROW(read_sweep_status(path), util::CheckError);
}

// ---------------------------------------------------------------------------
// End-to-end: archives are mode-invariant and sidecars deterministic.

constexpr int kCells = 6;

/// A miniature real experiment: each cell runs a fixed-seed COBRA cover
/// on a hypercube and reports the cover round — so the kernel's
/// instrumented paths genuinely execute, and any metrics-induced
/// perturbation of the trajectory would change the archived CSV.
ExperimentDef make_cover_experiment() {
  ExperimentDef def;
  def.name = "coversmoke";
  def.description = "fixed-seed cover rounds for telemetry tests";
  def.tables = {{"coversmoke_cover", "cover rounds", {"cell", "round"}}};
  def.cells = [] {
    std::vector<CellDef> cells;
    for (int i = 0; i < kCells; ++i) {
      std::string id = "rep";
      id += std::to_string(i);
      cells.push_back({id, "cover", [i, id](CellContext& ctx) {
                         const graph::Graph g = graph::hypercube(6);
                         core::CobraProcess p(g);
                         rng::Rng rng =
                             rng::make_stream(util::global_seed(),
                                              static_cast<std::uint64_t>(i));
                         p.reset(graph::VertexId{0});
                         const auto cover = p.run_until_cover(rng, 100000);
                         COBRA_CHECK(cover.has_value());
                         ctx.row().add(id).add(
                             static_cast<std::int64_t>(*cover));
                       }});
    }
    return cells;
  };
  return def;
}

class MetricsRunTest : public ::testing::Test {
 protected:
  void SetUp() override {
    util::set_seed_override(777);
    dir_ = fs::path(::testing::TempDir()) /
           ("metricsrun_" +
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

  std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  }

  fs::path dir_;
};

TEST_F(MetricsRunTest, ModesDoNotPerturbArchivesAndRoundsArchivesRounds) {
  const ExperimentDef def = make_cover_experiment();

  // Baseline: metrics off. No sidecar is written.
  run_experiment(def, config("off"));
  EXPECT_FALSE(
      fs::exists(dir_ / "off/coversmoke.metrics.jsonl"));

  util::set_metrics_override("summary");
  run_experiment(def, config("summary"));
  util::set_metrics_override("rounds");
  run_experiment(def, config("rounds"));

  // The headline guarantee: identical archive bytes in every mode.
  const std::string baseline =
      slurp((dir_ / "off/coversmoke_cover.csv").string());
  EXPECT_EQ(baseline,
            slurp((dir_ / "summary/coversmoke_cover.csv").string()));
  EXPECT_EQ(baseline,
            slurp((dir_ / "rounds/coversmoke_cover.csv").string()));

  // Summary mode archives per-cell kernel totals, no trajectories.
  const auto summary = read_metrics_sidecar(
      (dir_ / "summary/coversmoke.metrics.jsonl").string());
  ASSERT_EQ(summary.size(), static_cast<std::size_t>(kCells));
  for (const CellMetricsRecord& r : summary) {
    EXPECT_EQ(r.mode, "summary");
    EXPECT_GT(r.snapshot.value_of("kernel.rounds"), 0u) << r.cell_id;
    EXPECT_GT(r.snapshot.value_of("kernel.first_visits"), 0u) << r.cell_id;
    EXPECT_TRUE(r.rounds.empty()) << r.cell_id;
  }

  // Rounds mode adds the per-round trajectory; same totals semantics.
  const auto rounds = read_metrics_sidecar(
      (dir_ / "rounds/coversmoke.metrics.jsonl").string());
  ASSERT_EQ(rounds.size(), static_cast<std::size_t>(kCells));
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const CellMetricsRecord& r = rounds[i];
    EXPECT_EQ(r.mode, "rounds");
    ASSERT_FALSE(r.rounds.empty()) << r.cell_id;
    // Trajectory length and totals are consistent with the counters —
    // and the counters agree with the summary-mode run of the same cell.
    EXPECT_EQ(r.rounds.size(), r.snapshot.value_of("kernel.rounds"))
        << r.cell_id;
    std::uint64_t newly = 0;
    for (const core::RoundStat& s : r.rounds) newly += s.newly;
    EXPECT_EQ(newly, r.snapshot.value_of("kernel.first_visits"))
        << r.cell_id;
    EXPECT_EQ(r.cell_id, summary[i].cell_id);
    EXPECT_EQ(util::snapshot_to_json(r.snapshot),
              util::snapshot_to_json(summary[i].snapshot))
        << r.cell_id;
  }
  // A completed run compacts the sidecar into journal (= enumeration)
  // order with exactly one record per cell.
  for (int i = 0; i < kCells; ++i)
    EXPECT_EQ(rounds[static_cast<std::size_t>(i)].cell_id,
              "rep" + std::to_string(i));
}

TEST_F(MetricsRunTest, ShardedSidecarsMergeToTheUnshardedContent) {
  const ExperimentDef def = make_cover_experiment();
  util::set_metrics_override("rounds");
  run_experiment(def, config("full"));

  for (int i = 1; i <= 3; ++i)
    EXPECT_TRUE(run_experiment(def, config("sharded", i, 3)).complete());
  merge_experiment(def, (dir_ / "sharded").string(), nullptr);

  // Shard CSVs merged byte-identical (the existing guarantee)...
  EXPECT_EQ(slurp((dir_ / "full/coversmoke_cover.csv").string()),
            slurp((dir_ / "sharded/coversmoke_cover.csv").string()));

  // ...and the merged sidecar holds the same cells in the same order
  // with identical metric payloads (wall_us is timing, not compared).
  const auto full = read_metrics_sidecar(
      (dir_ / "full/coversmoke.metrics.jsonl").string());
  const auto merged = read_metrics_sidecar(
      (dir_ / "sharded/coversmoke.metrics.jsonl").string());
  ASSERT_EQ(full.size(), merged.size());
  for (std::size_t i = 0; i < full.size(); ++i) {
    EXPECT_EQ(full[i].cell_id, merged[i].cell_id);
    EXPECT_EQ(util::snapshot_to_json(full[i].snapshot),
              util::snapshot_to_json(merged[i].snapshot))
        << full[i].cell_id;
    ASSERT_EQ(full[i].rounds.size(), merged[i].rounds.size());
    for (std::size_t t = 0; t < full[i].rounds.size(); ++t) {
      EXPECT_EQ(full[i].rounds[t].frontier, merged[i].rounds[t].frontier);
      EXPECT_EQ(full[i].rounds[t].newly, merged[i].rounds[t].newly);
    }
  }
}

TEST_F(MetricsRunTest, FreshRunReplacesAStaleSidecar) {
  const ExperimentDef def = make_cover_experiment();
  util::set_metrics_override("summary");
  SweepConfig partial = config("restart");
  partial.max_cells = 2;
  run_experiment(def, partial);
  const std::string sidecar =
      (dir_ / "restart/coversmoke.metrics.jsonl").string();
  EXPECT_EQ(read_metrics_sidecar(sidecar).size(), 2u);

  // No --resume: the journal restarts, and so must the sidecar — no
  // stale records from the abandoned run may survive.
  run_experiment(def, config("restart"));
  const auto records = read_metrics_sidecar(sidecar);
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kCells));
  for (int i = 0; i < kCells; ++i)
    EXPECT_EQ(records[static_cast<std::size_t>(i)].cell_id,
              "rep" + std::to_string(i));
}

// ---------------------------------------------------------------------------
// Core-level mode invariance, per engine and per process.

/// The first-visit round of every vertex under a fixed stream — the full
/// observable trajectory of one cover run.
std::vector<std::uint64_t> cobra_first_visits(core::Engine engine,
                                              std::uint64_t seed) {
  const graph::Graph g = graph::hypercube(6);
  core::ProcessOptions opt;
  opt.engine = engine;
  core::CobraProcess p(g, opt);
  rng::Rng rng = rng::make_stream(seed, 0);
  p.reset(graph::VertexId{0});
  std::vector<std::uint64_t> rounds(g.num_vertices(), ~0ull);
  rounds[0] = 0;
  while (!p.all_visited()) {
    COBRA_CHECK(p.round() < 100000);
    p.step(rng);
    for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
      if (rounds[u] == ~0ull && p.is_visited(u)) rounds[u] = p.round();
  }
  return rounds;
}

std::vector<std::uint64_t> bips_infection_curve(core::Engine engine,
                                                std::uint64_t seed) {
  const graph::Graph g = graph::hypercube(6);
  core::BipsOptions opt;
  opt.process.engine = engine;
  core::BipsProcess p(g, graph::VertexId{0}, opt);
  rng::Rng rng = rng::make_stream(seed, 0);
  std::vector<std::uint64_t> curve;
  for (int t = 0; t < 40; ++t) curve.push_back(p.step(rng));
  return curve;
}

TEST_F(MetricsRunTest, RoundsModeDoesNotPerturbAnyEngine) {
  using core::Engine;
  for (const Engine e : {Engine::kSparse, Engine::kDense, Engine::kAuto}) {
    util::clear_env_overrides();
    const auto cobra_off = cobra_first_visits(e, 4321);
    const auto bips_off = bips_infection_curve(e, 4321);
    util::set_metrics_override("rounds");
    EXPECT_EQ(cobra_first_visits(e, 4321), cobra_off)
        << core::engine_name(e);
    EXPECT_EQ(bips_infection_curve(e, 4321), bips_off)
        << core::engine_name(e);
  }
  // Leave no session blocks behind for other tests.
  core::drain_cell_metrics();
  util::clear_env_overrides();
}

}  // namespace
}  // namespace cobra::runner
