// Engine-equivalence guarantees of the BIPS port onto the frontier kernel
// (core/frontier_kernel.hpp), mirroring tests/test_cobra_engines.cpp:
//   * sparse, dense and auto are bit-for-bit identical at a fixed seed —
//     the keyed draw protocol covers every engine, so the representation
//     (plain scan vs boundary-marked bitset) cannot change the trajectory;
//   * golden-seed first-infection sequences agree across engines on path,
//     cycle, hypercube and random-regular fixtures;
//   * the dense boundary-marking round skips exactly the determined
//     vertices, with and without laziness, and the auto engine switches at
//     both density extremes.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/bips.hpp"
#include "core/frontier_kernel.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "util/assert.hpp"

namespace cobra::core {
namespace {

constexpr Engine kAllEngines[] = {Engine::kSparse, Engine::kDense,
                                  Engine::kAuto};

rng::Rng test_rng(std::uint64_t salt) { return rng::make_stream(3003, salt); }

std::vector<graph::Graph> fixture_graphs() {
  rng::Rng gen = test_rng(999);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::path(48));
  graphs.push_back(graph::cycle(64));
  graphs.push_back(graph::hypercube(7));
  graphs.push_back(graph::connected_random_regular(256, 6, gen));
  return graphs;
}

std::vector<graph::VertexId> sorted_infected(const BipsProcess& p) {
  std::vector<graph::VertexId> v = p.infected();
  std::sort(v.begin(), v.end());
  return v;
}

BipsOptions engine_options(Engine e) {
  BipsOptions opt;
  opt.process.engine = e;
  return opt;
}

/// Steps `a` and `b` in lockstep on identically seeded streams and asserts
/// every observable agrees each round: the bit-for-bit claim.
void expect_lockstep_identical(BipsProcess& a, BipsProcess& b,
                               std::uint64_t seed, int max_rounds) {
  rng::Rng rng_a = rng::make_stream(seed, 0);
  rng::Rng rng_b = rng::make_stream(seed, 0);
  a.reset(graph::VertexId{0});
  b.reset(graph::VertexId{0});
  for (int t = 0; t < max_rounds && !a.fully_infected(); ++t) {
    const std::uint32_t size_a = a.step(rng_a);
    const std::uint32_t size_b = b.step(rng_b);
    ASSERT_EQ(size_a, size_b) << "round " << t;
    ASSERT_EQ(a.infected_degree(), b.infected_degree()) << "round " << t;
    ASSERT_EQ(sorted_infected(a), sorted_infected(b)) << "round " << t;
    for (graph::VertexId u = 0; u < a.graph().num_vertices(); ++u)
      ASSERT_EQ(a.is_infected(u), b.is_infected(u)) << "round " << t;
  }
  EXPECT_EQ(a.round(), b.round());
  EXPECT_EQ(a.fully_infected(), b.fully_infected());
}

TEST(BipsEngines, AllEnginesBitForBitOnFixtures) {
  for (const graph::Graph& g : fixture_graphs()) {
    for (const Engine other : {Engine::kDense, Engine::kAuto}) {
      BipsProcess sparse(g, 0, engine_options(Engine::kSparse));
      BipsProcess candidate(g, 0, engine_options(other));
      expect_lockstep_identical(sparse, candidate, 8000 + g.num_vertices(),
                                20000);
    }
  }
}

TEST(BipsEngines, BitForBitWithLazinessAndBernoulliBranching) {
  const graph::Graph g = graph::hypercube(6);
  for (double laziness : {0.0, 0.5}) {
    BipsOptions sparse_opt;
    sparse_opt.process.engine = Engine::kSparse;
    sparse_opt.process.laziness = laziness;
    sparse_opt.process.branching = Branching::one_plus_rho(0.3);
    BipsOptions dense_opt = sparse_opt;
    dense_opt.process.engine = Engine::kDense;
    BipsProcess sparse(g, 0, sparse_opt);
    BipsProcess dense(g, 0, dense_opt);
    expect_lockstep_identical(sparse, dense, 77, 20000);
  }
}

TEST(BipsEngines, FirstInfectionRoundsIdenticalAcrossEngines) {
  // The full infection sequence — the round at which each vertex is first
  // infected — must agree across every engine, not just aggregates.
  const graph::Graph g = graph::cycle(96);
  std::map<Engine, std::vector<std::uint64_t>> first_infected;
  for (const Engine e : kAllEngines) {
    BipsProcess p(g, 0, engine_options(e));
    rng::Rng rng = rng::make_stream(606, 0);
    std::vector<std::uint64_t> rounds(g.num_vertices(), ~0ull);
    rounds[0] = 0;
    while (!p.fully_infected()) {
      ASSERT_LT(p.round(), 1000000u);
      p.step(rng);
      for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
        if (rounds[u] == ~0ull && p.is_infected(u)) rounds[u] = p.round();
    }
    first_infected[e] = std::move(rounds);
  }
  for (const Engine e : {Engine::kDense, Engine::kAuto})
    EXPECT_EQ(first_infected[Engine::kSparse], first_infected[e]);
}

TEST(BipsEngines, InfectionTimesIdenticalAcrossEnginesOnRandomRegular) {
  rng::Rng gen = test_rng(4);
  const graph::Graph g = graph::connected_random_regular(512, 8, gen);
  std::map<Engine, std::vector<std::uint64_t>> times;
  for (const Engine e : kAllEngines) {
    BipsOptions opt = engine_options(e);
    BipsProcess p(g, 0, opt);
    for (std::uint64_t rep = 0; rep < 8; ++rep) {
      rng::Rng rng = rng::make_stream(707, rep);
      p.reset(0);
      const auto full = p.run_until_full(rng, 1000000);
      ASSERT_TRUE(full.has_value());
      times[e].push_back(*full);
    }
  }
  for (const Engine e : {Engine::kDense, Engine::kAuto})
    EXPECT_EQ(times[Engine::kSparse], times[e]);
}

TEST(BipsEngines, MultiSourceBitForBitAcrossEngines) {
  const graph::Graph g = graph::hypercube(7);
  const graph::VertexId sources[] = {0, 63, 100};
  std::map<Engine, std::vector<graph::VertexId>> after;
  for (const Engine e : kAllEngines) {
    BipsProcess p(g, 0, engine_options(e));
    p.reset(std::span<const graph::VertexId>(sources, 3));
    rng::Rng rng = rng::make_stream(505, 0);
    for (int t = 0; t < 6; ++t) p.step(rng);
    after[e] = sorted_infected(p);
  }
  for (const Engine e : {Engine::kDense, Engine::kAuto})
    EXPECT_EQ(after[Engine::kSparse], after[e]);
}

TEST(BipsEngines, AutoRunsDenseAtBothDensityExtremes) {
  // The BIPS auto rule is edge-budget based: the boundary-marking dense
  // round is cheap both when A_t is tiny and when it is nearly full, so a
  // full infection run under kAuto must use dense rounds while the forced
  // sparse engine never does.
  rng::Rng gen = test_rng(5);
  const graph::Graph g = graph::connected_random_regular(512, 8, gen);
  BipsProcess autop(g, 0, engine_options(Engine::kAuto));
  rng::Rng rng = test_rng(6);
  ASSERT_TRUE(autop.run_until_full(rng, 1000000).has_value());
  EXPECT_GT(autop.dense_rounds(), 0u);

  BipsProcess sparse(g, 0, engine_options(Engine::kSparse));
  rng::Rng rng2 = test_rng(6);
  ASSERT_TRUE(sparse.run_until_full(rng2, 1000000).has_value());
  EXPECT_EQ(sparse.dense_rounds(), 0u);
}

TEST(BipsEngines, FullInfectionStaysAbsorbingOnEveryEngine) {
  const graph::Graph g = graph::complete(32);
  for (const Engine e : kAllEngines) {
    BipsProcess p(g, 0, engine_options(e));
    rng::Rng rng = test_rng(7);
    ASSERT_TRUE(p.run_until_full(rng, 10000).has_value());
    for (int extra = 0; extra < 10; ++extra) {
      p.step(rng);
      EXPECT_TRUE(p.fully_infected()) << engine_name(e);
      EXPECT_TRUE(p.is_infected(17));
    }
  }
}

TEST(BipsEngines, SharedSamplerReproducesPerProcessResults) {
  const graph::Graph g = graph::hypercube(6);
  const auto sampler = std::make_shared<const NeighborSampler>(g, 0.0);
  BipsOptions own = engine_options(Engine::kAuto);
  BipsOptions shared = own;
  shared.process.sampler = sampler;
  BipsProcess p_own(g, 0, own);
  BipsProcess p_shared(g, 0, shared);
  expect_lockstep_identical(p_own, p_shared, 99, 20000);
}

TEST(BipsEngines, SharedSamplerMustMatchGraphAndLaziness) {
  const graph::Graph g = graph::hypercube(5);
  const graph::Graph other = graph::cycle(32);
  BipsOptions opt = engine_options(Engine::kDense);
  opt.process.sampler = std::make_shared<const NeighborSampler>(other, 0.0);
  EXPECT_THROW(BipsProcess(g, 0, opt), util::CheckError);
  BipsOptions lazy = engine_options(Engine::kDense);
  lazy.process.laziness = 0.5;
  lazy.process.sampler = std::make_shared<const NeighborSampler>(g, 0.25);
  EXPECT_THROW(BipsProcess(g, 0, lazy), util::CheckError);
}

}  // namespace
}  // namespace cobra::core
