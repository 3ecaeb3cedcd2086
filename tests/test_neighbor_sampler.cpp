// The plain-push sampler takes no alias table (core/frontier_kernel.hpp,
// NeighborSampler::sample): slot ((word >> 32) * deg) >> 32. These tests
// pin that shortcut to the table it replaced, so archives cannot move:
//   * an equal-weight rng::AliasTable over d columns keeps every column it
//     picks, even at the largest accept value, for every d in 1..4096 and
//     at 65535, 65536 and 2^20 — so its choice is the fixed-point column;
//   * the sampler's plain path returns that same column's neighbour, and a
//     degree-0 vertex (the single-vertex graph) still maps to itself;
//   * a lazy sampler keeps the degree-bucketed table path unchanged.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "core/frontier_kernel.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "rng/discrete.hpp"
#include "rng/stream.hpp"

namespace cobra::core {
namespace {

// The plain path's slot, written out independently of the sampler.
std::uint32_t uniform_slot(std::uint64_t word, std::uint32_t d) {
  return static_cast<std::uint32_t>(((word >> 32) * d) >> 32);
}

// The smallest high half whose fixed-point column is c (of d).
std::uint64_t first_high_half(std::uint32_t c, std::uint32_t d) {
  return ((static_cast<std::uint64_t>(c) << 32) + d - 1) / d;
}

std::vector<std::uint32_t> equivalence_degrees() {
  std::vector<std::uint32_t> degrees;
  for (std::uint32_t d = 1; d <= 4096; ++d) degrees.push_back(d);
  for (const std::uint32_t d : {65535u, 65536u, 1u << 20}) degrees.push_back(d);
  return degrees;
}

TEST(NeighborSampler, EqualWeightAliasTableKeepsEveryColumn) {
  constexpr std::uint64_t kMaxAccept = 0xFFFFFFFFull;
  rng::Rng rng = rng::make_stream(31, 0);
  for (const std::uint32_t d : equivalence_degrees()) {
    const rng::AliasTable table(std::vector<double>(d, 1.0 / d));
    ASSERT_EQ(table.size(), d);
    // Both ends of every column's high-half range, with the accept half
    // at its maximum: the table must return the column itself.
    std::uint64_t mismatches = 0;
    for (std::uint32_t c = 0; c < d; ++c) {
      const std::uint64_t lo = first_high_half(c, d);
      const std::uint64_t hi = first_high_half(c + 1, d) - 1;
      ASSERT_LE(lo, hi) << "d = " << d << ", column " << c;
      for (const std::uint64_t high : {lo, hi}) {
        const std::uint64_t word = (high << 32) | kMaxAccept;
        ASSERT_EQ(uniform_slot(word, d), c) << "d = " << d;
        mismatches += table.sample_word(word) != c ? 1 : 0;
      }
    }
    // Arbitrary words: the table's choice is the plain path's slot.
    for (int i = 0; i < 64; ++i) {
      const std::uint64_t word = rng.next_u64();
      mismatches += table.sample_word(word) != uniform_slot(word, d) ? 1 : 0;
    }
    ASSERT_EQ(mismatches, 0u) << "d = " << d;
  }
}

TEST(NeighborSampler, PlainPathIsTheAliasTableColumn) {
  rng::Rng rng = rng::make_stream(32, 0);
  for (const std::uint32_t d :
       {1u, 2u, 3u, 5u, 7u, 64u, 1000u, 4096u, 65535u, 65536u, 1u << 20}) {
    const graph::Graph g = graph::star(d + 1);  // centre 0 has degree d
    ASSERT_EQ(g.degree(0), d);
    const NeighborSampler sampler(g, 0.0);
    EXPECT_EQ(sampler.num_buckets(), 0u) << "plain pushes build no table";
    const rng::AliasTable table(std::vector<double>(d, 1.0 / d));
    std::vector<std::uint64_t> words = {0, ~0ull, 0xFFFFFFFFull,
                                        0xFFFFFFFF00000000ull};
    for (int i = 0; i < 4096; ++i) words.push_back(rng.next_u64());
    std::uint64_t mismatches = 0;
    for (const std::uint64_t word : words) {
      mismatches +=
          sampler.sample(0, word) != g.neighbor(0, table.sample_word(word))
              ? 1
              : 0;
      // A leaf has one neighbour: the centre.
      mismatches += sampler.sample(1, word) != 0 ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << "d = " << d;
  }
}

TEST(NeighborSampler, SingleVertexPushesToItself) {
  graph::GraphBuilder b(1);
  const graph::Graph g = std::move(b).build("single");
  rng::Rng rng = rng::make_stream(33, 0);
  for (const double laziness : {0.0, 0.25}) {
    const NeighborSampler sampler(g, laziness);
    EXPECT_EQ(sampler.num_buckets(), laziness > 0.0 ? 1u : 0u);
    for (const std::uint64_t word : {std::uint64_t{0}, ~std::uint64_t{0},
                                     rng.next_u64()})
      EXPECT_EQ(sampler.sample(0, word), 0u) << "laziness " << laziness;
  }
}

TEST(NeighborSampler, LazyPathKeepsTheDegreeBucketedTables) {
  const double laziness = 0.25;
  const graph::Graph g = graph::lollipop(6, 4);  // degrees 1, 2, 5, 6
  const NeighborSampler sampler(g, laziness);
  std::vector<bool> seen(g.max_degree() + 1, false);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
    seen[g.degree(u)] = true;
  std::size_t distinct = 0;
  for (const bool s : seen) distinct += s ? 1 : 0;
  EXPECT_EQ(sampler.num_buckets(), distinct);

  rng::Rng rng = rng::make_stream(34, 0);
  std::uint64_t mismatches = 0;
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    const std::uint32_t d = g.degree(u);
    std::vector<double> weights(d, (1.0 - laziness) / d);
    weights.push_back(laziness);  // slot d: stay put
    const rng::AliasTable table(weights);
    for (int i = 0; i < 2048; ++i) {
      const std::uint64_t word = rng.next_u64();
      const std::uint32_t slot = table.sample_word(word);
      const graph::VertexId want = slot < d ? g.neighbor(u, slot) : u;
      mismatches += sampler.sample(u, word) != want ? 1 : 0;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace cobra::core
