// The run-directory layout: the names the builders spell, the one strict
// parser that reads them back, and the lister every directory walk uses.
#include "runner/layout.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

namespace cobra::runner::layout {
namespace {

namespace fs = std::filesystem;

TEST(RunLayout, BuildersSpellEveryRunDirectoryName) {
  EXPECT_EQ(journal("out", "exp", 1, 1), "out/exp.1of1.journal");
  EXPECT_EQ(journal("out", "exp", 2, 4), "out/exp.2of4.journal");
  EXPECT_EQ(fragment("out", "exp_t", 1, 1), "out/exp_t.csv");
  EXPECT_EQ(fragment("out", "exp_t", 3, 4), "out/exp_t.shard3of4.csv");
  EXPECT_EQ(worker_log("out", "exp", 2, 4), "out/exp.2of4.worker.log");
  EXPECT_EQ(costs("out", "exp"), "out/exp.costs");
  EXPECT_EQ(sweep_status("out", "exp"), "out/exp.sweep.status");
}

TEST(RunLayout, ParserAcceptsExactlyTheNamesTheBuildersSpell) {
  struct Case {
    const char* name;
    std::optional<ShardFile> expected;
  };
  const auto file = [](FileKind kind, int index, int count,
                       bool canonical = false) {
    return ShardFile{kind, "hypercube", index, count, canonical, ""};
  };
  const std::vector<Case> cases = {
      {"hypercube.1of2.journal", file(FileKind::kJournal, 1, 2)},
      {"hypercube.1of1.journal", file(FileKind::kJournal, 1, 1)},
      {"hypercube.12of12.journal", file(FileKind::kJournal, 12, 12)},
      {"hypercube.2of3.metrics.jsonl", file(FileKind::kSidecar, 2, 3)},
      {"hypercube.metrics.jsonl", file(FileKind::kSidecar, 1, 1, true)},
      // Shard specs that are not exactly `<i>of<k>` with 1 <= i <= k.
      {"hypercube.1of2x.journal", std::nullopt},
      {"hypercube.0of2.journal", std::nullopt},
      {"hypercube.3of2.journal", std::nullopt},
      {"hypercube.of2.journal", std::nullopt},
      {"hypercube.1of.journal", std::nullopt},
      {"hypercube.x1of2.journal", std::nullopt},
      {"hypercube.01of2.journal", std::nullopt},
      {"hypercube.+1of2.journal", std::nullopt},
      {"hypercube.1of99999999999.journal", std::nullopt},
      {"hypercube.1of2x.metrics.jsonl", std::nullopt},
      // Everything else in a run directory is not a shard file.
      {"hypercube.journal", std::nullopt},
      {".1of2.journal", std::nullopt},
      {".metrics.jsonl", std::nullopt},
      {"hypercube.1of2.worker.log", std::nullopt},
      {"hypercube.costs", std::nullopt},
      {"exp_hypercube.shard1of2.csv", std::nullopt},
  };
  for (const Case& c : cases) {
    const std::optional<ShardFile> parsed = parse(c.name);
    ASSERT_EQ(parsed.has_value(), c.expected.has_value()) << c.name;
    if (!parsed) continue;
    EXPECT_EQ(parsed->kind, c.expected->kind) << c.name;
    EXPECT_EQ(parsed->experiment, c.expected->experiment) << c.name;
    EXPECT_EQ(parsed->shard_index, c.expected->shard_index) << c.name;
    EXPECT_EQ(parsed->shard_count, c.expected->shard_count) << c.name;
    EXPECT_EQ(parsed->canonical, c.expected->canonical) << c.name;
  }
}

TEST(RunLayout, ParserReadsBackWhatTheBuildersWrite) {
  for (const auto& [index, count] :
       std::vector<std::pair<int, int>>{{1, 1}, {2, 3}, {10, 10}}) {
    for (const std::string& path : {journal("d", "exp", index, count),
                                    sidecar("d", "exp", index, count)}) {
      const auto parsed = parse(fs::path(path).filename().string());
      ASSERT_TRUE(parsed.has_value()) << path;
      EXPECT_EQ(parsed->experiment, "exp");
      EXPECT_EQ(parsed->shard_index, index) << path;
      EXPECT_EQ(parsed->shard_count, count) << path;
    }
  }
}

TEST(RunLayout, ListerGroupsByExperimentInShardOrder) {
  const fs::path dir = fs::path(::testing::TempDir()) / "run_layout_list";
  fs::remove_all(dir);
  fs::create_directories(dir);
  for (const char* name :
       {"b.2of2.journal", "b.1of2.journal", "a.1of1.journal",
        "a.1of2x.journal", "a.1of1.worker.log", "b.metrics.jsonl",
        "b.2of2.metrics.jsonl", "b.1of2.metrics.jsonl"}) {
    std::ofstream(dir / name) << "x\n";
  }
  const auto journals = list(dir.string(), FileKind::kJournal);
  ASSERT_EQ(journals.size(), 2u);
  ASSERT_EQ(journals.at("a").size(), 1u);
  EXPECT_EQ(journals.at("a")[0].path, (dir / "a.1of1.journal").string());
  ASSERT_EQ(journals.at("b").size(), 2u);
  EXPECT_EQ(journals.at("b")[0].shard_index, 1);
  EXPECT_EQ(journals.at("b")[1].shard_index, 2);

  const auto sidecars = list(dir.string(), FileKind::kSidecar);
  ASSERT_EQ(sidecars.size(), 1u);
  ASSERT_EQ(sidecars.at("b").size(), 3u);
  EXPECT_TRUE(sidecars.at("b")[0].canonical);  // the canonical one first
  EXPECT_EQ(sidecars.at("b")[1].shard_index, 1);

  EXPECT_TRUE(list((dir / "missing").string(), FileKind::kJournal).empty());
  fs::remove_all(dir);
}

}  // namespace
}  // namespace cobra::runner::layout
