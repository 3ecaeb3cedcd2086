#include <gtest/gtest.h>

#include "core/bips.hpp"
#include "graph/generators.hpp"
#include "rng/stream.hpp"
#include "sim/stats.hpp"
#include "util/assert.hpp"

namespace cobra::core {
namespace {

TEST(MultiSourceBips, SourcesAlwaysInfected) {
  const graph::Graph g = graph::cycle(16);
  BipsProcess p(g, 0);
  const std::vector<graph::VertexId> sources = {2, 9, 14};
  p.reset(std::span<const graph::VertexId>(sources.data(), sources.size()));
  EXPECT_EQ(p.infected_count(), 3u);
  auto rng = rng::make_stream(611, 0);
  for (int t = 0; t < 30; ++t) {
    p.step(rng);
    for (const auto s : sources) {
      EXPECT_TRUE(p.is_infected(s));
      EXPECT_TRUE(p.is_source(s));
    }
  }
  EXPECT_FALSE(p.is_source(0));
  EXPECT_EQ(p.sources(), sources);  // sorted, deduplicated
}

TEST(MultiSourceBips, DuplicatesDeduplicated) {
  const graph::Graph g = graph::petersen();
  BipsProcess p(g, 0);
  const std::vector<graph::VertexId> sources = {4, 4, 1, 1, 4};
  p.reset(std::span<const graph::VertexId>(sources.data(), sources.size()));
  EXPECT_EQ(p.sources().size(), 2u);
  EXPECT_EQ(p.infected_count(), 2u);
  EXPECT_EQ(p.source(), 1u);  // first source = smallest after sort
}

TEST(MultiSourceBips, SingleSourceResetUnchangedBehaviour) {
  const graph::Graph g = graph::cycle(9);
  BipsProcess p(g, 5);
  EXPECT_EQ(p.source(), 5u);
  EXPECT_EQ(p.sources().size(), 1u);
  auto rng = rng::make_stream(612, 0);
  const auto t = p.run_until_full(rng, 100000);
  EXPECT_TRUE(t.has_value());
}

TEST(MultiSourceBips, MoreSourcesInfectFasterOnAverage) {
  const graph::Graph g = graph::cycle(48);
  constexpr int kReps = 200;
  auto mean_time = [&](const std::vector<graph::VertexId>& sources,
                       std::uint64_t seed) {
    std::vector<double> times;
    for (int rep = 0; rep < kReps; ++rep) {
      auto rng = rng::make_stream(seed, static_cast<std::uint64_t>(rep));
      BipsProcess p(g, 0);
      p.reset(std::span<const graph::VertexId>(sources.data(),
                                               sources.size()));
      times.push_back(static_cast<double>(*p.run_until_full(rng, 1000000)));
    }
    return sim::mean(times);
  };
  const double one = mean_time({0}, 613);
  const double four = mean_time({0, 12, 24, 36}, 614);
  EXPECT_LT(four, one);
}

TEST(MultiSourceBips, CandidateSetIncludesAllExposedSources) {
  const graph::Graph g = graph::path(8);
  BipsProcess p(g, 0);
  const std::vector<graph::VertexId> sources = {0, 7};
  p.reset(std::span<const graph::VertexId>(sources.data(), sources.size()));
  const auto candidates = p.candidate_set();
  // Both sources have uninfected neighbours, so both are candidates, as are
  // the neighbours 1 and 6.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 0u),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 7u),
            candidates.end());
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 1u),
            candidates.end());
}

TEST(MultiSourceBips, BothKernelsSupportMultiSource) {
  // Both frontier-kernel representations: the vector scan and the
  // boundary-marked bitset.
  const graph::Graph g = graph::torus_power(5, 2);
  const std::vector<graph::VertexId> sources = {0, 12};
  for (const Engine engine : {Engine::kSparse, Engine::kDense}) {
    BipsOptions opt;
    opt.process.engine = engine;
    BipsProcess p(g, 0, opt);
    p.reset(std::span<const graph::VertexId>(sources.data(),
                                             sources.size()));
    auto rng = rng::make_stream(615, engine == Engine::kSparse ? 0 : 1);
    const auto t = p.run_until_full(rng, 100000);
    ASSERT_TRUE(t.has_value());
    p.step(rng);
    EXPECT_TRUE(p.fully_infected());  // absorbing with sources present
  }
}

TEST(MultiSourceBips, EmptySourceSetRejected) {
  const graph::Graph g = graph::cycle(5);
  BipsProcess p(g, 0);
  EXPECT_THROW(p.reset(std::span<const graph::VertexId>{}),
               util::CheckError);
}

TEST(MultiSourceBips, AllVerticesSourcesIsInstantlyFull) {
  const graph::Graph g = graph::cycle(6);
  BipsProcess p(g, 0);
  std::vector<graph::VertexId> all = {0, 1, 2, 3, 4, 5};
  p.reset(std::span<const graph::VertexId>(all.data(), all.size()));
  EXPECT_TRUE(p.fully_infected());
  auto rng = rng::make_stream(616, 0);
  EXPECT_EQ(*p.run_until_full(rng, 10), 0u);
}

}  // namespace
}  // namespace cobra::core
