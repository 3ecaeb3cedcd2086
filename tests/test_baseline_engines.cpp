// Engine-equivalence guarantees of the baselines' port onto the frontier
// kernel (core/frontier_kernel.hpp), mirroring tests/test_cobra_engines.cpp:
// for every protocol, reference/sparse/dense/auto produce bit-for-bit
// identical results at a fixed seed — golden-seed outcomes on path, cycle,
// hypercube and random-regular fixtures — because all randomness is keyed
// by (round key, entity) and destinations share one alias-table mapping.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "baselines/flooding.hpp"
#include "baselines/multi_walk.hpp"
#include "baselines/pull_gossip.hpp"
#include "baselines/push_gossip.hpp"
#include "baselines/random_walk.hpp"
#include "core/frontier_kernel.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"

namespace cobra::baselines {
namespace {

constexpr core::Engine kAllEngines[] = {
    core::Engine::kSparse, core::Engine::kDense, core::Engine::kAuto};

std::vector<graph::Graph> fixture_graphs() {
  rng::Rng gen = rng::make_stream(4004, 999);
  std::vector<graph::Graph> graphs;
  graphs.push_back(graph::path(48));
  graphs.push_back(graph::cycle(64));
  graphs.push_back(graph::hypercube(7));
  graphs.push_back(graph::connected_random_regular(256, 6, gen));
  return graphs;
}

BaselineOptions engine_options(core::Engine e) {
  BaselineOptions opt;
  opt.engine = e;
  return opt;
}

TEST(BaselineEngines, PushGossipBitForBitAcrossEngines) {
  for (const graph::Graph& g : fixture_graphs()) {
    std::map<core::Engine, std::pair<std::uint64_t, std::uint64_t>> results;
    for (const core::Engine e : kAllEngines) {
      rng::Rng rng = rng::make_stream(11, g.num_vertices());
      const GossipResult r =
          push_gossip_cover(g, 0, rng, 1u << 22, engine_options(e));
      ASSERT_TRUE(r.completed);
      results[e] = {r.rounds, r.transmissions};
    }
    for (const core::Engine e : kAllEngines)
      EXPECT_EQ(results[core::Engine::kSparse], results[e])
          << g.name() << "/" << core::engine_name(e);
  }
}

TEST(BaselineEngines, PullGossipBitForBitAcrossEngines) {
  for (const graph::Graph& g : fixture_graphs()) {
    std::map<core::Engine, std::pair<std::uint64_t, std::uint64_t>> results;
    for (const core::Engine e : kAllEngines) {
      rng::Rng rng = rng::make_stream(22, g.num_vertices());
      const PullResult r =
          pull_gossip_cover(g, 0, rng, 1u << 22, engine_options(e));
      ASSERT_TRUE(r.completed);
      results[e] = {r.rounds, r.transmissions};
    }
    for (const core::Engine e : kAllEngines)
      EXPECT_EQ(results[core::Engine::kSparse], results[e])
          << g.name() << "/" << core::engine_name(e);
  }
}

TEST(BaselineEngines, PushPullGossipBitForBitAcrossEngines) {
  for (const graph::Graph& g : fixture_graphs()) {
    std::map<core::Engine, std::pair<std::uint64_t, std::uint64_t>> results;
    for (const core::Engine e : kAllEngines) {
      rng::Rng rng = rng::make_stream(33, g.num_vertices());
      const PullResult r =
          push_pull_gossip_cover(g, 0, rng, 1u << 22, engine_options(e));
      ASSERT_TRUE(r.completed);
      results[e] = {r.rounds, r.transmissions};
    }
    for (const core::Engine e : kAllEngines)
      EXPECT_EQ(results[core::Engine::kSparse], results[e])
          << g.name() << "/" << core::engine_name(e);
  }
}

TEST(BaselineEngines, FloodingIdenticalAcrossEnginesAndMatchesEccentricity) {
  for (const graph::Graph& g : fixture_graphs()) {
    std::map<core::Engine, std::pair<std::uint64_t, std::uint64_t>> results;
    for (const core::Engine e : kAllEngines) {
      const FloodingResult r =
          flooding_cover(g, 0, 1u << 22, engine_options(e));
      ASSERT_TRUE(r.completed);
      results[e] = {r.rounds, r.transmissions};
    }
    for (const core::Engine e : kAllEngines)
      EXPECT_EQ(results[core::Engine::kSparse], results[e])
          << g.name() << "/" << core::engine_name(e);
  }
  // Sanity anchor: on the path from one end, flooding takes n-1 rounds.
  const graph::Graph p = graph::path(32);
  EXPECT_EQ(flooding_cover(p, 0, 1u << 20).rounds, 31u);
}

TEST(BaselineEngines, WalksIdenticalAcrossEngines) {
  // Particle processes have no frontier; the engines must coincide
  // trivially (identical draws, identical trajectory).
  for (const graph::Graph& g : fixture_graphs()) {
    std::map<core::Engine, std::uint64_t> walk, multi;
    for (const core::Engine e : kAllEngines) {
      rng::Rng rng1 = rng::make_stream(44, g.num_vertices());
      walk[e] =
          random_walk_cover(g, 0, rng1, 1u << 24, engine_options(e)).steps;
      rng::Rng rng2 = rng::make_stream(55, g.num_vertices());
      multi[e] =
          multi_walk_cover(g, 0, 8, rng2, 1u << 22, engine_options(e)).rounds;
    }
    for (const core::Engine e : kAllEngines) {
      EXPECT_EQ(walk[core::Engine::kSparse], walk[e]) << g.name();
      EXPECT_EQ(multi[core::Engine::kSparse], multi[e]) << g.name();
    }
  }
}

TEST(BaselineEngines, GossipPerRoundSizeSequencesIdenticalAcrossEngines) {
  // Stronger than final aggregates: running push/pull gossip truncated at
  // every horizon k pins the per-round informed-set-size sequence
  // (transmissions after k rounds are partial sums of |informed| resp.
  // |uninformed|), so the whole trajectory must agree round by round.
  for (const graph::Graph& g : fixture_graphs()) {
    for (std::uint64_t k = 1; k <= 24; k += 4) {
      std::map<core::Engine, std::pair<std::uint64_t, std::uint64_t>> push;
      std::map<core::Engine, std::pair<std::uint64_t, std::uint64_t>> pull;
      for (const core::Engine e : kAllEngines) {
        rng::Rng r1 = rng::make_stream(77, g.num_vertices());
        const GossipResult gp =
            push_gossip_cover(g, 0, r1, k, engine_options(e));
        push[e] = {gp.rounds, gp.transmissions};
        rng::Rng r2 = rng::make_stream(78, g.num_vertices());
        const PullResult gl =
            pull_gossip_cover(g, 0, r2, k, engine_options(e));
        pull[e] = {gl.rounds, gl.transmissions};
      }
      for (const core::Engine e : kAllEngines) {
        EXPECT_EQ(push[core::Engine::kSparse], push[e])
            << g.name() << " horizon " << k;
        EXPECT_EQ(pull[core::Engine::kSparse], pull[e])
            << g.name() << " horizon " << k;
      }
    }
  }
}

TEST(BaselineEngines, SharedSamplerReproducesPerCallResults) {
  rng::Rng gen = rng::make_stream(4004, 7);
  const graph::Graph g = graph::connected_random_regular(128, 4, gen);
  const auto sampler = std::make_shared<const core::NeighborSampler>(g, 0.0);
  BaselineOptions own = engine_options(core::Engine::kAuto);
  BaselineOptions shared = own;
  shared.sampler = sampler;
  {
    rng::Rng r1 = rng::make_stream(66, 0);
    rng::Rng r2 = rng::make_stream(66, 0);
    EXPECT_EQ(push_gossip_cover(g, 0, r1, 1u << 20, own).rounds,
              push_gossip_cover(g, 0, r2, 1u << 20, shared).rounds);
  }
  {
    rng::Rng r1 = rng::make_stream(67, 0);
    rng::Rng r2 = rng::make_stream(67, 0);
    EXPECT_EQ(random_walk_cover(g, 0, r1, 1u << 22, own).steps,
              random_walk_cover(g, 0, r2, 1u << 22, shared).steps);
  }
}

TEST(BaselineEngines, DenseEnginesUseDenseRoundsWhereItMatters) {
  // Not just equal results: the dense paths must actually engage. Push
  // gossip saturates its informed frontier, so a forced-dense run and an
  // auto run on a dense-friendly graph both exercise the bitset path
  // (results already asserted identical above); here we pin the auto
  // switch through the kernel directly.
  const graph::Graph g = graph::complete(512);
  core::FrontierKernel::Config cfg;
  cfg.engine = core::Engine::kAuto;
  core::FrontierKernel kernel(g, cfg);
  const graph::VertexId one[] = {0};
  kernel.assign(one);
  EXPECT_FALSE(kernel.begin_round(kernel.density_score(1)));
  kernel.commit(core::FrontierKernel::Commit::kReplace);
  EXPECT_TRUE(kernel.begin_round(kernel.density_score(512)));
}

}  // namespace
}  // namespace cobra::baselines
