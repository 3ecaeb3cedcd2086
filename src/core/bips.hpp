// BIPS: Biased Infection with Persistent Source (Cooper, Radzik, Rivera,
// PODC'16 / SPAA'17).
//
// State: the infected set A_t, with A_0 = {source}. Each round EVERY vertex
// u != source independently selects b random neighbours (with replacement)
// and is infected in A_{t+1} iff at least one selected neighbour is in A_t;
// the source is always infected. infec(v) = min{ t : A_t = V }. Full
// infection is absorbing.
//
// Each vertex makes its b selections from keyed draws on the shared
// frontier kernel (core/frontier_kernel.hpp): one round key per round, all
// per-vertex randomness keyed by (round key, vertex), so the sparse, dense
// and auto engines are bit-for-bit identical at a fixed seed and at every
// lane count, and differ only in cost. A_t always lives in the kernel's
// frontier bitset; the engine picks the round's algorithm. The sampling
// round (sparse engine) scans every vertex, lane-parallel with each lane
// writing only its own next-frontier words; each vertex tests all of its
// selections and sets its bit branch-free. The marking round (dense
// engine) exploits determined outcomes: a vertex whose selections cannot
// miss (every neighbour infected, and with laziness also itself) is
// infected without drawing, and one whose selections cannot hit stays
// uninfected without drawing. It marks N(S) (∪ S with laziness) from the
// smaller side S of A_t and V \ A_t: unmarked vertices have no selection
// target in S and are settled wholesale (left out, or installed as
// complement words). Among the marked, a vertex of S whose neighbours
// all lie in S is settled by reading its CSR row against the frontier
// words, again without drawing. Only the remaining, undetermined
// boundary draws, with early exit on the first hit. So a round costs
// O(min(d(A_t), d(V \ A_t))) marking plus draws for the undetermined
// boundary only, instead of O(n·b). The auto engine picks per round by
// a cost score. The law is pinned to the exact subset DP
// (core/bips_exact) by tests, and every engine to a naive statement of
// the rule round by round (tests/test_bips_engines.cpp).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/frontier_kernel.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"
#include "util/bitset.hpp"

namespace cobra::core {

/// The one BIPS execution kernel: b keyed draws per undetermined vertex.
/// Kept as a type only because perfbench/replay.cpp names it.
enum class BipsKernel {
  kSampling,  ///< b keyed draws per undetermined vertex
};

/// BipsProcess configuration.
struct BipsOptions {
  /// Branching/laziness/engine shared with COBRA (ProcessOptions::engine
  /// picks the frontier representation; ProcessOptions::sampler may inject
  /// a shared destination sampler).
  ProcessOptions process;
  /// Always kSampling; kept only because perfbench/replay.cpp reads it.
  BipsKernel kernel = BipsKernel::kSampling;
};

/// Simulator for one BIPS trajectory on a fixed graph.
///
/// Not thread-safe; run one instance per replicate (sim/monte_carlo does).
class BipsProcess {
 public:
  /// The graph must have min degree >= 1 and outlive the process.
  BipsProcess(const graph::Graph& g, graph::VertexId source,
              BipsOptions options = BipsOptions{});

  /// Restarts with A_0 = {source}.
  void reset(graph::VertexId source);

  /// Generalisation: several persistent sources (deduplicated, non-empty).
  /// The paper's process is the single-source case; multiple corrupted
  /// hosts are the natural epidemic extension and only speed up infection
  /// (monotonicity checked in tests).
  void reset(std::span<const graph::VertexId> sources);

  /// One synchronised round; returns |A_{t+1}|. Consumes exactly one
  /// 64-bit round key from the stream; every per-vertex choice is derived
  /// from it through the frontier kernel's keyed draws.
  std::uint32_t step(rng::Rng& rng);

  /// Rounds executed since reset (t of A_t).
  [[nodiscard]] std::uint64_t round() const { return round_; }

  /// The (first) persistent source.
  [[nodiscard]] graph::VertexId source() const { return sources_.front(); }

  /// All persistent sources, ascending.
  [[nodiscard]] const std::vector<graph::VertexId>& sources() const {
    return sources_;
  }

  /// True iff u is a persistent source.
  [[nodiscard]] bool is_source(graph::VertexId u) const {
    return source_set_.test(u);
  }

  /// Current infected set A_t (duplicate-free), in ascending vertex id on
  /// every engine: every round commits on the frontier bitset
  /// (materialised lazily — prefer infected_count() for the size).
  [[nodiscard]] const std::vector<graph::VertexId>& infected() const {
    return kernel_.frontier_vector();
  }

  /// True iff u is infected in A_t.
  [[nodiscard]] bool is_infected(graph::VertexId u) const {
    return kernel_.in_frontier(u);
  }

  /// |A_t| in O(1).
  [[nodiscard]] std::uint32_t infected_count() const {
    return kernel_.frontier_size();
  }

  /// d(A_t): sum of degrees of infected vertices (the paper's §3 tracker).
  /// Computed lazily per round — O(|A_t|) on first call after a step.
  [[nodiscard]] std::uint64_t infected_degree() const;

  /// True iff A_t = V.
  [[nodiscard]] bool fully_infected() const {
    return infected_count() == graph_->num_vertices();
  }

  /// Runs until A_t = V; returns the infection time infec(source), or
  /// nullopt after `max_rounds`.
  std::optional<std::uint64_t> run_until_full(rng::Rng& rng,
                                              std::uint64_t max_rounds);

  /// The paper's candidate set for the NEXT round (eq. (6)):
  ///   C_{t+1} = (N(A_t) ∪ {source}) \ B_fix,
  ///   B_fix   = { u : N(u) ⊆ A_t }.
  /// Sorted ascending (the paper's fixed serialisation order).
  [[nodiscard]] std::vector<graph::VertexId> candidate_set() const;

  /// |B_fix| w.r.t. the current infected set.
  [[nodiscard]] std::uint32_t fixed_count() const;

  /// d_A(u) = |N(u) ∩ A_t| for the current round.
  [[nodiscard]] std::uint32_t infected_neighbor_count(graph::VertexId u) const;

  /// Probability that vertex u (≠ source) is infected next round given the
  /// current A_t — the paper's (32)/(33) with optional laziness.
  [[nodiscard]] double infection_probability(graph::VertexId u) const;

  /// The graph this process runs on.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// The options the process was constructed with (engine unresolved).
  [[nodiscard]] const BipsOptions& options() const { return options_; }

  /// The resolved stepping engine (never Engine::kDefault).
  [[nodiscard]] Engine engine() const { return engine_; }

  /// Rounds since reset executed with the dense (boundary-marking) path —
  /// introspection for tests and the auto-switch benchmarks.
  [[nodiscard]] std::uint64_t dense_rounds() const { return dense_rounds_; }

 private:
  /// Builds the kernel configuration for the resolved engine.
  FrontierKernel::Config kernel_config() const;

  void step_sampling(std::uint64_t round_key);
  void step_marking(std::uint64_t round_key);

  const graph::Graph* graph_;
  BipsOptions options_;
  Engine engine_;
  FrontierKernel kernel_;
  std::vector<graph::VertexId> sources_;
  util::DynamicBitset source_set_;
  double avg_degree_ = 0.0;
  std::uint64_t round_ = 0;
  bool marked_last_ = false;  // the last round marked (auto's hysteresis)
  std::uint64_t dense_rounds_ = 0;

  // Lazy d(A_t) cache (invalidated per round).
  mutable std::uint64_t infected_degree_ = 0;
  mutable bool infected_degree_valid_ = false;

  // Scratch for the dense rounds' boundary marking.
  util::DynamicBitset scratch_;
};

/// Static helper shared with the exact-DP module: probability that a vertex
/// with degree `d`, `da` infected neighbours and (lazy, self-infected flag)
/// catches the infection under `options`.
double bips_infection_probability(std::uint32_t d, std::uint32_t da,
                                  bool self_infected,
                                  const ProcessOptions& options);

}  // namespace cobra::core
