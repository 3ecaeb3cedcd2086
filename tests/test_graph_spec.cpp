// The graph-spec grammar, labels and the fingerprint-deduplicated
// per-process graph cache.
#include "graph/spec.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "graph/binary_io.hpp"
#include "util/assert.hpp"
#include "util/env.hpp"

namespace cobra::graph {
namespace {

struct TempFile {
  explicit TempFile(std::string p) : path(std::move(p)) {}
  ~TempFile() { std::remove(path.c_str()); }
  std::string path;
};

TEST(GraphSpec, BuildsEveryFamily) {
  EXPECT_EQ(build_graph_spec("complete_6").num_vertices(), 6u);
  EXPECT_EQ(build_graph_spec("cycle_9").num_vertices(), 9u);
  EXPECT_EQ(build_graph_spec("path_7").num_edges(), 6u);
  EXPECT_EQ(build_graph_spec("star_8").max_degree(), 7u);
  EXPECT_EQ(build_graph_spec("hypercube_4").num_vertices(), 16u);
  EXPECT_EQ(build_graph_spec("torus_3_d2").num_vertices(), 9u);
  EXPECT_EQ(build_graph_spec("regular_16_r4").min_degree(), 4u);
  EXPECT_EQ(build_graph_spec("petersen").num_vertices(), 10u);
}

TEST(GraphSpec, SpecStringBecomesTheGraphName) {
  EXPECT_EQ(build_graph_spec("cycle_9").name(), "cycle_9");
  EXPECT_EQ(build_graph_spec("regular_16_r4").name(), "regular_16_r4");
}

TEST(GraphSpec, RejectsMalformedSpecs) {
  for (const char* spec :
       {"cycle", "cycle_2", "cycle_x", "frobnicate_8", "complete_1",
        "hypercube_31", "torus_2_d2", "torus_4_d9", "regular_16_r16",
        "regular_9_r3", "petersen_2", "file:", ""}) {
    EXPECT_THROW((void)build_graph_spec(spec), util::CheckError)
        << "spec '" << spec << "' should be rejected";
  }
}

TEST(GraphSpec, RefusesSpecsWhoseCsrExceedsPhysicalMemory) {
  // 8(n+1) + 8m bytes: K_200000 has m = 19,999,900,000 edges, Q_30
  // m = 30 * 2^29. Validation refuses without building, so a machine that
  // could hold the CSR is detected before anything is allocated.
  for (const auto& [spec, estimate] :
       std::vector<std::pair<std::string, std::string>>{
           {"complete_200000", "160.0 GB"}, {"hypercube_30", "137.4 GB"}}) {
    try {
      (void)graph_spec_label(spec);
      GTEST_SKIP() << "this machine's physical memory holds " << spec;
    } catch (const util::CheckError&) {
    }
    try {
      (void)build_graph_spec(spec);
      ADD_FAILURE() << spec << " was not refused";
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("'" + spec + "'"), std::string::npos) << what;
      EXPECT_NE(what.find(estimate), std::string::npos) << what;
      EXPECT_NE(what.find("physical memory"), std::string::npos) << what;
    }
  }
}

TEST(GraphSpec, LabelValidatesWithoutBuilding) {
  EXPECT_EQ(graph_spec_label("cycle_9"), "cycle_9");
  EXPECT_THROW((void)graph_spec_label("frobnicate_8"), util::CheckError);
}

TEST(GraphSpec, RandomRegularIsSeedIndependent) {
  // Pre-baked instances must be the same graph every run: the generator
  // stream derives from the spec parameters, never from COBRA_SEED.
  util::set_seed_override(1);
  const std::uint64_t fp1 = build_graph_spec("regular_16_r4").fingerprint();
  util::set_seed_override(2);
  const std::uint64_t fp2 = build_graph_spec("regular_16_r4").fingerprint();
  util::clear_env_overrides();
  EXPECT_EQ(fp1, fp2);
}

TEST(GraphSpec, FileSpecLoadsCgrWithEmbeddedLabel) {
  const TempFile f("test_spec_file.cgr");
  write_cgr_file(build_graph_spec("cycle_11"), f.path);
  const std::string spec = "file:" + f.path;
  ASSERT_TRUE(is_file_spec(spec));
  EXPECT_EQ(graph_spec_label(spec), "cycle_11");
  const Graph g = build_graph_spec(spec);
  EXPECT_EQ(g.name(), "cycle_11");
  EXPECT_EQ(g.num_vertices(), 11u);
  EXPECT_EQ(g.storage_backend(), "mmap");
}

TEST(GraphSpec, FileSpecReadsTextEdgeLists) {
  const TempFile f("test_spec_file.edges");
  {
    std::FILE* out = std::fopen(f.path.c_str(), "w");
    std::fputs("3 2\n0 1\n1 2\n", out);
    std::fclose(out);
  }
  const std::string spec = "file:" + f.path;
  EXPECT_EQ(graph_spec_label(spec), "test_spec_file");
  EXPECT_EQ(build_graph_spec(spec).num_edges(), 2u);
}

TEST(GraphSpec, CacheSharesInstancesAndDedupsByFingerprint) {
  clear_graph_cache();
  const auto first = shared_graph("cycle_13");
  const auto second = shared_graph("cycle_13");
  EXPECT_EQ(first.get(), second.get());

  // A file: spec of the identical structure resolves to the SAME
  // instance via the fingerprint index — one alias table, one spectrum.
  const TempFile f("test_spec_cache.cgr");
  write_cgr_file(build_graph_spec("cycle_13"), f.path);
  const auto from_file = shared_graph("file:" + f.path);
  EXPECT_EQ(from_file.get(), first.get());

  const GraphCacheStats stats = graph_cache_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.fingerprint_dedups, 1u);
  clear_graph_cache();
}

TEST(GraphSpec, SplitGraphSpecsTrimsAndDropsEmpties) {
  EXPECT_EQ(split_graph_specs(" cycle_8 ,, petersen ,file:a.cgr"),
            (std::vector<std::string>{"cycle_8", "petersen",
                                      "file:a.cgr"}));
  EXPECT_TRUE(split_graph_specs("").empty());
  EXPECT_TRUE(split_graph_specs(" , ").empty());
}

}  // namespace
}  // namespace cobra::graph
