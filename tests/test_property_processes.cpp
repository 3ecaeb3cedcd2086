// Parameterised property sweeps across graph families x process
// configurations: the invariants every COBRA/BIPS execution must satisfy
// regardless of topology, branching model or kernel.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "core/bips.hpp"
#include "core/cobra.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/random_generators.hpp"
#include "rng/stream.hpp"
#include "util/math.hpp"

namespace cobra::core {
namespace {

graph::Graph family_graph(int family) {
  rng::Rng rng = rng::make_stream(515151, static_cast<std::uint64_t>(family));
  switch (family) {
    case 0: return graph::complete(20);
    case 1: return graph::cycle(17);
    case 2: return graph::cycle(16);
    case 3: return graph::path(15);
    case 4: return graph::star(18);
    case 5: return graph::hypercube(4);
    case 6: return graph::petersen();
    case 7: return graph::binary_tree(15);
    case 8: return graph::barbell(5, 2);
    case 9: return graph::lollipop(5, 5);
    case 10: return graph::torus_power(4, 2);
    case 11: return graph::complete_bipartite(4, 7);
    case 12: return graph::connected_random_regular(24, 3, rng);
    case 13: return graph::connected_erdos_renyi(24, 2.2, rng);
    default: return graph::circulant(15, {1, 3});
  }
}

ProcessOptions branching_case(int option) {
  ProcessOptions opt;
  switch (option) {
    case 0: break;                                          // b = 2
    case 1: opt.branching = Branching::integer(3); break;   // b = 3
    case 2: opt.branching = Branching::one_plus_rho(0.5); break;
    default: opt.laziness = 0.5; break;                     // lazy b = 2
  }
  return opt;
}

using ProcessParam = std::tuple<int, int>;

class ProcessProperties : public ::testing::TestWithParam<ProcessParam> {};

TEST_P(ProcessProperties, CobraInvariants) {
  const auto [family, option] = GetParam();
  const graph::Graph g = family_graph(family);
  const ProcessOptions opt = branching_case(option);
  const std::uint32_t max_fanout = opt.branching.base +
                                   (opt.branching.extra_prob > 0 ? 1 : 0);

  CobraProcess p(g, opt);
  auto rng = rng::make_stream(616161,
                              static_cast<std::uint64_t>(family * 10 + option));
  p.reset(graph::VertexId{0});
  std::uint32_t visited_before = p.num_visited();
  std::uint64_t tx_before = 0;
  for (int t = 0; t < 200 && !p.all_visited(); ++t) {
    const std::size_t active_before = p.active().size();
    p.step(rng);
    // Active set can grow by at most the total fan-out.
    EXPECT_LE(p.active().size(), active_before * max_fanout);
    EXPECT_GE(p.active().size(), 1u);  // fan-out >= 1 keeps particles alive
    // Visited monotone, counts consistent.
    EXPECT_GE(p.num_visited(), visited_before);
    visited_before = p.num_visited();
    // Transmissions strictly increase while particles are active.
    EXPECT_GT(p.transmissions(), tx_before);
    tx_before = p.transmissions();
    // Active list is duplicate-free and within range.
    std::set<graph::VertexId> unique(p.active().begin(), p.active().end());
    EXPECT_EQ(unique.size(), p.active().size());
    for (const auto u : p.active()) EXPECT_LT(u, g.num_vertices());
  }
  EXPECT_TRUE(p.all_visited())
      << g.name() << " not covered in 200 rounds (option " << option << ")";
  // Cover time >= information-theoretic lower bound.
  const auto ecc = graph::eccentricity(g, 0);
  ASSERT_TRUE(ecc.has_value());
  EXPECT_GE(p.round(), *ecc);
}

TEST_P(ProcessProperties, BipsInvariants) {
  const auto [family, option] = GetParam();
  const graph::Graph g = family_graph(family);
  BipsOptions opt;
  opt.process = branching_case(option);

  // The plain process can fail to absorb quickly on bipartite graphs
  // (lambda = 1): that is exactly the paper's laziness remark. Use lazy
  // dynamics there.
  if (graph::is_bipartite(g) && opt.process.laziness == 0.0)
    opt.process.laziness = 0.5;

  BipsProcess p(g, 0, opt);
  auto rng = rng::make_stream(717171,
                              static_cast<std::uint64_t>(family * 10 + option));
  const std::uint64_t budget = 50000;
  bool full = false;
  for (std::uint64_t t = 0; t < budget && !full; ++t) {
    p.step(rng);
    EXPECT_TRUE(p.is_infected(0));  // persistent source
    std::set<graph::VertexId> unique(p.infected().begin(), p.infected().end());
    EXPECT_EQ(unique.size(), p.infected().size());
    full = p.fully_infected();
  }
  EXPECT_TRUE(full) << g.name() << " option " << option;
  // Absorbing state.
  p.step(rng);
  EXPECT_TRUE(p.fully_infected());
}

INSTANTIATE_TEST_SUITE_P(
    FamiliesAndBranching, ProcessProperties,
    ::testing::Combine(::testing::Range(0, 15), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<ProcessParam>& info) {
      return "family" + std::to_string(std::get<0>(info.param)) + "_opt" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace cobra::core
