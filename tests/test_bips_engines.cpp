// Engine-equivalence guarantees of the BIPS port onto the frontier kernel
// (core/frontier_kernel.hpp), mirroring tests/test_cobra_engines.cpp:
//   * sparse, dense and auto are bit-for-bit identical at a fixed seed —
//     the keyed draw protocol covers every engine, so the representation
//     (plain scan vs boundary-marked bitset) cannot change the trajectory;
//   * golden-seed first-infection sequences agree across engines on path,
//     cycle, hypercube and random-regular fixtures;
//   * the dense boundary-marking round skips exactly the determined
//     vertices, with and without laziness, and the auto engine switches at
//     both density extremes;
//   * every engine and lane count follows, round by round, a naive
//     statement of the BIPS rule written here: every non-source vertex
//     draws its selections and is infected iff one lands in A_t. Rounds
//     that settle some vertices without drawing must agree with it.
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

/// The BIPS rule as the paper states it, with no marking and no skipped
/// draws: A_{t+1} is the sources plus every vertex u that makes its
/// selections from VertexDraws(round_key, u) — the extra selection's coin
/// first — and hits A_t with one of them.
std::vector<bool> naive_next(const graph::Graph& g,
                             const std::vector<bool>& infected,
                             const std::vector<graph::VertexId>& sources,
                             const ProcessOptions& options,
                             const NeighborSampler& lazy_sampler,
                             std::uint64_t round_key) {
  std::vector<bool> next(g.num_vertices(), false);
  for (graph::VertexId u = 0; u < g.num_vertices(); ++u) {
    VertexDraws draws(round_key, u);
    std::uint32_t selections = options.branching.base;
    const double extra = options.branching.extra_prob;
    if (extra > 0.0 && (extra >= 1.0 || draws.uniform01() < extra))
      ++selections;
    for (std::uint32_t j = 0; j < selections && !next[u]; ++j) {
      const std::uint64_t word = draws.next_word();
      graph::VertexId v = 0;
      if (options.laziness == 0.0) {
        const std::uint64_t slot = ((word >> 32) * g.degree(u)) >> 32;
        v = g.neighbor(u, static_cast<std::uint32_t>(slot));
      } else {
        v = lazy_sampler.sample(u, word);
      }
      next[u] = infected[v];
    }
  }
  for (const graph::VertexId s : sources) next[s] = true;
  return next;
}

struct NaiveRun {
  bool saw_small_infected = false;    // a round began with 2|A_t| <= n
  bool saw_small_uninfected = false;  // a round began with 2|A_t| > n
};

/// Runs `p` from `sources` to full infection (plus two absorbing rounds)
/// in lockstep with naive_next, asserting A_t agrees every round.
NaiveRun expect_matches_naive_rule(BipsProcess& p,
                                   std::span<const graph::VertexId> sources,
                                   std::uint64_t seed) {
  const graph::Graph& g = p.graph();
  const ProcessOptions& options = p.options().process;
  const NeighborSampler lazy_sampler(g, options.laziness);
  const std::vector<graph::VertexId> source_list(sources.begin(),
                                                 sources.end());
  p.reset(sources);
  std::vector<bool> infected(g.num_vertices(), false);
  for (const graph::VertexId s : sources) infected[s] = true;
  rng::Rng rng = rng::make_stream(seed, 0);
  NaiveRun seen;
  int absorbing = 0;
  for (int t = 0; t < 100000 && absorbing < 2; ++t) {
    const std::uint32_t a = p.infected_count();
    (2ull * a <= g.num_vertices() ? seen.saw_small_infected
                                  : seen.saw_small_uninfected) = true;
    rng::Rng key_stream = rng;  // the round key step() is about to draw
    const std::uint64_t round_key = key_stream.next_u64();
    infected = naive_next(g, infected, source_list, options, lazy_sampler,
                          round_key);
    p.step(rng);
    for (graph::VertexId u = 0; u < g.num_vertices(); ++u)
      EXPECT_EQ(p.is_infected(u), infected[u])
          << g.name() << ", round " << t << ", vertex " << u;
    if (::testing::Test::HasFailure()) return seen;
    if (p.fully_infected()) ++absorbing;
  }
  EXPECT_EQ(absorbing, 2) << g.name() << " never fully infected";
  return seen;
}

std::vector<ProcessOptions> naive_rule_options() {
  ProcessOptions plain;
  ProcessOptions lazy;
  lazy.laziness = 0.5;
  ProcessOptions one_plus_rho;
  one_plus_rho.branching = Branching::one_plus_rho(0.3);
  return {plain, lazy, one_plus_rho};
}

TEST(BipsEngines, EveryEngineAndLaneCountMatchesTheNaiveRule) {
  rng::Rng gen = test_rng(8);
  const graph::Graph graphs[] = {
      graph::cycle(130), graph::torus_power(17, 2), graph::hypercube(6),
      graph::connected_random_regular(130, 4, gen)};
  for (const graph::Graph& g : graphs) {
    const graph::VertexId sources[] = {0, g.num_vertices() / 2};
    for (const ProcessOptions& base : naive_rule_options()) {
      for (const Engine e : kAllEngines) {
        for (const int lanes : {1, 2, 4}) {
          BipsOptions opt;
          opt.process = base;
          opt.process.engine = e;
          opt.process.kernel_threads = lanes;
          BipsProcess p(g, 0, opt);
          // Two runs on one process: the second begins after a reset()
          // from a fully infected state.
          for (const std::uint64_t seed : {1201, 1202}) {
            const NaiveRun seen = expect_matches_naive_rule(p, sources, seed);
            ASSERT_FALSE(::testing::Test::HasFailure())
                << g.name() << ", " << engine_name(e) << ", lanes " << lanes
                << ", laziness " << base.laziness << ", extra "
                << base.branching.extra_prob << ", seed " << seed;
            EXPECT_TRUE(seen.saw_small_infected && seen.saw_small_uninfected)
                << g.name() << ": A_t stayed on one side of n/2";
          }
        }
      }
    }
  }
}

TEST(BipsEngines, ForkedRoundsMatchTheNaiveRule) {
  // torus_128_d2 is wide enough (256 words at degree 4) that the marking
  // and sampling scans fork two lanes, so determined interiors are
  // settled on several threads at once.
  const graph::Graph g = graph::torus_power(128, 2);
  const graph::VertexId sources[] = {0, g.num_vertices() / 2};
  for (const ProcessOptions& base : naive_rule_options()) {
    if (base.branching.extra_prob > 0.0) continue;
    for (const Engine e : {Engine::kSparse, Engine::kDense}) {
      BipsOptions opt;
      opt.process = base;
      opt.process.engine = e;
      opt.process.kernel_threads = 4;
      BipsProcess p(g, 0, opt);
      expect_matches_naive_rule(p, sources, 1301);
      ASSERT_FALSE(::testing::Test::HasFailure())
          << engine_name(e) << ", laziness " << base.laziness;
    }
  }
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
