#include "graph/builder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "rng/stream.hpp"
#include "util/assert.hpp"

namespace cobra::graph {
namespace {

TEST(GraphBuilder, RejectsSelfLoop) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(1, 1), util::CheckError);
}

TEST(GraphBuilder, RejectsOutOfRange) {
  GraphBuilder b(3);
  EXPECT_THROW(b.add_edge(0, 3), util::CheckError);
  EXPECT_THROW(b.add_edge(7, 0), util::CheckError);
}

TEST(GraphBuilder, RejectsDuplicateByDefault) {
  GraphBuilder b(3);
  b.add_edge(0, 1);
  b.add_edge(1, 0);  // same undirected edge
  EXPECT_THROW(std::move(b).build(), util::CheckError);
}

TEST(GraphBuilder, DeduplicatePolicyKeepsOneCopy) {
  GraphBuilder b(3, DuplicatePolicy::kDeduplicate);
  b.add_edge(0, 1);
  b.add_edge(1, 0);
  b.add_edge(1, 2);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.degree(1), 2u);
}

TEST(GraphBuilder, BuildsCorrectCsr) {
  GraphBuilder b(5);
  b.add_edge(4, 0);
  b.add_edge(2, 1);
  b.add_edge(0, 2);
  const Graph g = std::move(b).build("test");
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_TRUE(g.has_edge(0, 4));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.degree(3), 0u);
  EXPECT_EQ(g.min_degree(), 0u);
}

TEST(GraphBuilder, EdgeCountTracking) {
  GraphBuilder b(10);
  EXPECT_EQ(b.num_edges_added(), 0u);
  b.add_edge(0, 1);
  b.add_edge(2, 3);
  EXPECT_EQ(b.num_edges_added(), 2u);
}

TEST(GraphBuilder, IsolatedVerticesAllowedAtBuildLevel) {
  GraphBuilder b(4);
  b.add_edge(0, 1);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_vertices(), 4u);
  EXPECT_EQ(g.degree(2), 0u);
}

// A multigraph on 60 vertices: 400 random pairs, each added one to three
// times in a random orientation, then shuffled. Returns the edges as
// added and the sorted, unique canonical edge list they reduce to.
struct Multigraph {
  std::vector<std::pair<VertexId, VertexId>> added;
  std::vector<std::pair<VertexId, VertexId>> unique;
};

Multigraph shuffled_multigraph(VertexId n, std::uint64_t stream) {
  rng::Rng rng = rng::make_stream(99, stream);
  Multigraph m;
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<VertexId>(rng.below(n));
    const auto v = static_cast<VertexId>(rng.below(n));
    if (u == v) continue;
    const std::uint64_t copies = 1 + rng.below(3);
    for (std::uint64_t c = 0; c < copies; ++c)
      m.added.emplace_back(rng.bernoulli(0.5) ? std::make_pair(u, v)
                                              : std::make_pair(v, u));
    m.unique.push_back(std::minmax(u, v));
  }
  rng.shuffle(m.added.begin(), m.added.end());
  std::sort(m.unique.begin(), m.unique.end());
  m.unique.erase(std::unique(m.unique.begin(), m.unique.end()),
                 m.unique.end());
  return m;
}

TEST(GraphBuilder, DeduplicateMatchesSortUniqueReference) {
  constexpr VertexId kN = 60;
  const Multigraph m = shuffled_multigraph(kN, 1);
  ASSERT_GT(m.added.size(), m.unique.size() + 100);  // many duplicates

  GraphBuilder b(kN, DuplicatePolicy::kDeduplicate);
  for (const auto& [u, v] : m.added) b.add_edge(u, v);
  const Graph g = std::move(b).build();

  // Brute force: each vertex's sorted partners from the unique edge list.
  std::vector<std::vector<VertexId>> lists(kN);
  for (const auto& [u, v] : m.unique) {
    lists[u].push_back(v);
    lists[v].push_back(u);
  }
  std::vector<std::uint64_t> offsets{0};
  std::vector<VertexId> adj;
  for (auto& list : lists) {
    std::sort(list.begin(), list.end());
    adj.insert(adj.end(), list.begin(), list.end());
    offsets.push_back(adj.size());
  }
  EXPECT_TRUE(std::ranges::equal(g.offsets(), offsets));
  EXPECT_TRUE(std::ranges::equal(g.adjacency(), adj));
  EXPECT_EQ(g.num_edges(), m.unique.size());
}

TEST(GraphBuilder, RejectNamesLexicographicallyFirstDuplicate) {
  constexpr VertexId kN = 60;
  for (std::uint64_t stream = 2; stream < 6; ++stream) {
    const Multigraph m = shuffled_multigraph(kN, stream);
    std::vector<std::pair<VertexId, VertexId>> canonical;
    for (const auto& [u, v] : m.added) canonical.push_back(std::minmax(u, v));
    std::sort(canonical.begin(), canonical.end());
    const auto first =
        std::adjacent_find(canonical.begin(), canonical.end());
    ASSERT_NE(first, canonical.end());

    GraphBuilder b(kN);
    for (const auto& [u, v] : m.added) b.add_edge(u, v);
    const std::string expected = "duplicate edge {" +
                                 std::to_string(first->first) + "," +
                                 std::to_string(first->second) + "}";
    try {
      (void)std::move(b).build();
      FAIL() << "expected CheckError";
    } catch (const util::CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what() << " should name " << expected;
    }
  }
}

TEST(GraphBuilder, FinishCsrSortsListsAndCompacts) {
  // Symmetric lists filled out of order; edge {1,2} appears twice and
  // vertex 3 is isolated.
  std::vector<std::uint64_t> offsets{0, 2, 5, 8, 8};
  std::vector<VertexId> adj{2, 1, 2, 0, 2, 1, 0, 1};

  std::vector<std::uint64_t> rejected_offsets = offsets;
  std::vector<VertexId> rejected_adj = adj;
  const auto dup =
      finish_csr(rejected_offsets, rejected_adj, DuplicatePolicy::kReject);
  ASSERT_TRUE(dup.has_value());
  EXPECT_EQ(*dup, std::make_pair(VertexId{1}, VertexId{2}));

  EXPECT_FALSE(finish_csr(offsets, adj, DuplicatePolicy::kDeduplicate));
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 2, 4, 6, 6}));
  EXPECT_EQ(adj, (std::vector<VertexId>{1, 2, 0, 2, 0, 1}));
}

}  // namespace
}  // namespace cobra::graph
