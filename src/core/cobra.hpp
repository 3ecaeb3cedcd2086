// The COBRA process (coalescing-branching random walk), Dutta et al. [5,6],
// as analysed by Cooper, Radzik, Rivera (SPAA'17).
//
// State: the set C_t of vertices holding a particle. Each round, every
// vertex in C_t pushes to b random neighbours (chosen independently,
// uniformly, with replacement); C_{t+1} is the set of vertices receiving at
// least one particle (multiple arrivals coalesce).
//
// cover(u) = min{ T : union of C_0..C_T = V } with C_0 = {u}.
//
// The per-round work runs on the process-agnostic frontier kernel
// (core::FrontierKernel, core/frontier_kernel.hpp), which owns the
// sparse/dense frontier representations, the coalescing rule, the
// auto-switch and the visited accumulator. Every round consumes one
// 64-bit round key and derives all per-vertex randomness from it, so the
// engine (core::Engine) selects only the representation: every engine and
// lane count gives the same bytes at a fixed seed. See docs/ARCHITECTURE.md
// ("Frontier kernel") for the design and tests/test_cobra_engines.cpp for
// the equivalence guarantees.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "core/frontier_kernel.hpp"
#include "core/process.hpp"
#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace cobra::core {

/// Simulator for one COBRA trajectory on a fixed graph.
///
/// Not thread-safe; run one instance per replicate (sim/monte_carlo does).
class CobraProcess {
 public:
  /// The graph must be connected with min degree >= 1 — except the trivial
  /// single-vertex graph (n = 1, no edges), which is accepted and covers at
  /// round 0 with every push staying put. Graphs with n >= 2 and an
  /// isolated vertex are rejected. The process keeps a reference, so the
  /// graph must outlive it.
  explicit CobraProcess(const graph::Graph& g,
                        ProcessOptions options = ProcessOptions{});

  /// Restarts with C_0 = {start}; `start` counts as visited at round 0.
  void reset(graph::VertexId start);

  /// Restarts with C_0 = `start` (deduplicated); all count as visited.
  void reset(std::span<const graph::VertexId> start);

  /// Executes one synchronised round. Returns the number of first-time
  /// visits this round. Consumes exactly one 64-bit round key per call and
  /// derives all per-vertex randomness from it (frontier_kernel.hpp).
  std::uint32_t step(rng::Rng& rng);

  /// Rounds executed since reset (t of C_t).
  [[nodiscard]] std::uint64_t round() const { return round_; }

  /// Current particle set C_t (duplicate-free). Order is engine-dependent:
  /// arrival order after sparse rounds, ascending vertex id
  /// when the dense frontier produced the round. Materialised lazily after
  /// dense rounds; prefer num_active() when only the size is needed.
  [[nodiscard]] const std::vector<graph::VertexId>& active() const {
    return kernel_.frontier_vector();
  }

  /// |C_t| without materialising the vector (O(1)).
  [[nodiscard]] std::uint32_t num_active() const {
    return kernel_.frontier_size();
  }

  /// True iff u holds a particle in C_t.
  [[nodiscard]] bool is_active(graph::VertexId u) const {
    return kernel_.in_frontier(u);
  }

  /// Vertices visited so far (|C_0 ∪ ... ∪ C_t|).
  [[nodiscard]] std::uint32_t num_visited() const {
    return kernel_.num_visited();
  }

  /// True iff every vertex has been visited.
  [[nodiscard]] bool all_visited() const { return kernel_.all_visited(); }

  /// True iff u appeared in some C_s, s <= t.
  [[nodiscard]] bool is_visited(graph::VertexId u) const {
    return kernel_.is_visited(u);
  }

  /// Total particle transmissions since reset (the process's message cost;
  /// the quantity COBRA is designed to keep at O(b |C_t|) per round).
  [[nodiscard]] std::uint64_t transmissions() const { return transmissions_; }

  /// Runs until all vertices are visited; returns the cover time, or
  /// nullopt if `max_rounds` elapse first (callers treat that as a failed
  /// w.h.p. event and may restart, as the paper's restart argument does).
  std::optional<std::uint64_t> run_until_cover(rng::Rng& rng,
                                               std::uint64_t max_rounds);

  /// Runs until `target` is visited; returns Hit(target).
  std::optional<std::uint64_t> run_until_hit(rng::Rng& rng,
                                             graph::VertexId target,
                                             std::uint64_t max_rounds);

  /// The graph this process walks on.
  [[nodiscard]] const graph::Graph& graph() const { return *graph_; }

  /// The options the process was constructed with (engine unresolved).
  [[nodiscard]] const ProcessOptions& options() const { return options_; }

  /// The resolved stepping engine (never Engine::kDefault).
  [[nodiscard]] Engine engine() const { return engine_; }

  /// The resolved in-round lane count the kernel runs with (>= 1);
  /// results are bit-identical at every setting.
  [[nodiscard]] int kernel_threads() const {
    return kernel_.kernel_threads();
  }

  /// Rounds since reset executed with the dense (bitset) frontier —
  /// introspection for tests and the auto-switch benchmarks.
  [[nodiscard]] std::uint64_t dense_rounds() const {
    return kernel_.dense_rounds();
  }

 private:
  /// Builds the kernel configuration for the resolved engine.
  FrontierKernel::Config kernel_config() const;

  const graph::Graph* graph_;
  ProcessOptions options_;
  Engine engine_;
  FrontierKernel kernel_;
  std::uint64_t round_ = 0;
  std::uint64_t transmissions_ = 0;
};

}  // namespace cobra::core
