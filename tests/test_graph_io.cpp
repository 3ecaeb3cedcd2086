#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "graph/binary_io.hpp"
#include "graph/generators.hpp"
#include "graph/spec.hpp"
#include "util/assert.hpp"

namespace cobra::graph {
namespace {

TEST(GraphIo, RoundTripThroughStream) {
  const Graph original = petersen();
  std::stringstream buffer;
  write_edge_list(original, buffer);
  const Graph loaded = read_edge_list(buffer, "petersen");
  EXPECT_EQ(loaded.num_vertices(), original.num_vertices());
  EXPECT_EQ(loaded.num_edges(), original.num_edges());
  EXPECT_EQ(loaded.edges(), original.edges());
}

TEST(GraphIo, RoundTripThroughFile) {
  const std::string path = "test_io_roundtrip.edges";
  const Graph original = hypercube(4);
  write_edge_list_file(original, path);
  const Graph loaded = read_edge_list_file(path);
  EXPECT_EQ(loaded.edges(), original.edges());
  std::remove(path.c_str());
}

TEST(GraphIo, CommentsAndBlankLinesIgnored) {
  std::stringstream in;
  in << "# a comment\n\n3 2\n# another\n0 1\n1 2\n";
  const Graph g = read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_edges(), 2u);
}

TEST(GraphIo, RejectsMissingHeader) {
  std::stringstream in;
  in << "# only comments\n";
  EXPECT_THROW(read_edge_list(in), util::CheckError);
}

TEST(GraphIo, RejectsEdgeCountMismatch) {
  std::stringstream in;
  in << "3 5\n0 1\n";
  EXPECT_THROW(read_edge_list(in), util::CheckError);
}

TEST(GraphIo, RejectsOutOfRangeVertex) {
  std::stringstream in;
  in << "3 1\n0 7\n";
  EXPECT_THROW(read_edge_list(in), util::CheckError);
}

TEST(GraphIo, RejectsMalformedEdgeLine) {
  std::stringstream in;
  in << "3 1\n0\n";
  EXPECT_THROW(read_edge_list(in), util::CheckError);
}

TEST(GraphIo, RejectsSelfLoop) {
  std::stringstream in;
  in << "3 1\n1 1\n";
  EXPECT_THROW(read_edge_list(in), util::CheckError);
}

TEST(GraphIo, MissingFileThrows) {
  EXPECT_THROW(read_edge_list_file("definitely_not_here.edges"),
               util::CheckError);
}

/// Writes `text` to `path`, loads it through the text-spec path
/// (file:PATH) and the .cgr ingest path, and expects each to throw a
/// CheckError containing every string of `needles`.
void expect_located_refusal(const std::string& path, const std::string& text,
                            const std::vector<std::string>& needles) {
  std::ofstream(path) << text;
  const std::function<void()> loads[] = {
      [&] { (void)build_graph_spec("file:" + path); },
      [&] { (void)ingest_edge_list_file(path, path + ".cgr"); },
  };
  for (const auto& load : loads) {
    try {
      load();
      ADD_FAILURE() << path << " was accepted";
    } catch (const util::CheckError& e) {
      const std::string what = e.what();
      for (const std::string& needle : needles)
        EXPECT_NE(what.find(needle), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".cgr").c_str());
}

TEST(GraphIo, HeaderClaimingMoreThanSimpleGraphEdgesIsLocated) {
  // Refused at the header, before a builder or degree array is sized by
  // the claimed m.
  expect_located_refusal("test_io_absurd_m.edges",
                         "# claims K_4 a trillion times over\n"
                         "4 1000000000000\n0 1\n",
                         {"test_io_absurd_m.edges line 2",
                          "1000000000000 edges", "more than the 6"});
}

TEST(GraphIo, HeaderBeyondPhysicalMemoryIsLocated) {
  // 8(n+1) + 8m bytes for n = 2^32 - 1, m = 10^15: 8 PB.
  expect_located_refusal("test_io_huge.edges",
                         "4294967295 1000000000000000\n0 1\n",
                         {"test_io_huge.edges line 1",
                          "'4294967295 1000000000000000'",
                          "physical memory"});
}

}  // namespace
}  // namespace cobra::graph
