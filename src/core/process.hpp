// Shared configuration types for every spreading process (COBRA, BIPS and
// the baselines): stepping-engine selection, the branching model, and
// ProcessOptions. The per-(round, vertex) randomness every kernel engine
// draws from is one fixed protocol, core::VertexDraws.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>

#include "util/assert.hpp"

namespace cobra::core {

class NeighborSampler;  // core/frontier_kernel.hpp
struct StepMetrics;     // core/metrics.hpp

/// Stepping-engine selection for the frontier-kernel processes (see
/// docs/ARCHITECTURE.md, "Frontier kernel").
///
/// Every process (COBRA, BIPS and the baselines) derives its per-vertex
/// randomness from one 64-bit round key per round, so sparse, dense and
/// auto are bit-for-bit identical at a fixed seed, at every lane count;
/// the engine only selects the frontier representation (vector vs bitset
/// vs density-switched) and so the cost.
enum class Engine : std::uint8_t {
  kDefault,  ///< resolve from --engine / COBRA_ENGINE at construction
  kSparse,   ///< vector frontier at every density
  kDense,    ///< bitset frontier at every density
  kAuto,     ///< sparse<->dense switch on frontier density
  /// Alias kept only because perfbench/replay.cpp names it; not a
  /// separate engine, and parse_engine does not accept "reference".
  kReference = kSparse,
};

/// Parses an engine name ("sparse", "dense", "auto"; "fast" is accepted as
/// an alias for "auto"). Returns nullopt for anything else.
std::optional<Engine> parse_engine(std::string_view name);

/// Canonical name of an engine ("default" for Engine::kDefault).
const char* engine_name(Engine engine);

/// Resolves kDefault against the session-wide setting (the --engine flag /
/// COBRA_ENGINE environment variable, default "auto"); other values pass
/// through. Throws util::CheckError when the session string is not a valid
/// engine name.
Engine resolve_engine(Engine engine);

/// Resolves a ProcessOptions::kernel_threads value: 0 defers to the
/// session-wide setting (--kernel-threads / COBRA_KERNEL_THREADS, default
/// 1); positive values pass through clamped to [1, 256].
int resolve_kernel_threads(int kernel_threads);

/// Branching factor model.
///
/// Every active vertex (COBRA) / every vertex (BIPS) makes `base` neighbour
/// selections, plus one more with probability `extra_prob`:
///   * paper's main case b = 2          -> {base = 2, extra_prob = 0}
///   * paper's Section 6 case b = 1+rho -> {base = 1, extra_prob = rho}
///   * b = 1 (simple random walk)       -> {base = 1, extra_prob = 0}
/// Expected branching factor = base + extra_prob.
struct Branching {
  std::uint32_t base = 2;   ///< selections every vertex always makes
  double extra_prob = 0.0;  ///< probability of one further selection

  /// Deterministic integer branching factor b >= 1.
  static Branching integer(std::uint32_t b) {
    COBRA_CHECK(b >= 1);
    return Branching{b, 0.0};
  }

  /// b = 1 + rho with 0 <= rho <= 1 (Section 6 of the paper).
  static Branching one_plus_rho(double rho) {
    COBRA_CHECK(rho >= 0.0 && rho <= 1.0);
    return Branching{1, rho};
  }

  /// Expected branching factor base + extra_prob.
  [[nodiscard]] double expected() const {
    return static_cast<double>(base) + extra_prob;
  }
};

/// Options common to both processes.
///
/// `laziness` is the probability that an individual selection stays at the
/// selecting vertex instead of a uniform random neighbour. The paper's
/// remark after Theorem 1.2 uses laziness 1/2 to make bipartite graphs
/// (where lambda = 1) tractable; 0 is the standard process.
struct ProcessOptions {
  /// Branching model; the paper's main case is integer b = 2.
  Branching branching = Branching::integer(2);
  /// Probability a selection stays at the selecting vertex (see above).
  double laziness = 0.0;

  /// Which stepping engine executes step(); kDefault defers to the
  /// session-wide --engine / COBRA_ENGINE setting.
  Engine engine = Engine::kDefault;

  /// In-round worker-lane count for the kernel's parallel dense scans and
  /// the commit merge. 0 (the default) defers to the session-wide
  /// --kernel-threads / COBRA_KERNEL_THREADS setting; 1 is the serial
  /// kernel. Results are bit-identical at every setting (the per-vertex
  /// draws are keyed by (round, vertex), so lane boundaries can't shift
  /// randomness), which tests/test_kernel_parallel.cpp asserts.
  int kernel_threads = 0;

  /// Optional pre-built destination sampler, shared across replicates so
  /// a lazy process's degree-bucketed alias tables are constructed once
  /// per graph rather than once per process. Must match the process's
  /// graph and laziness. When null, a process that samples destinations
  /// builds its own.
  std::shared_ptr<const NeighborSampler> sampler;

  /// Telemetry hook (core/metrics.hpp): when non-null, the process's
  /// frontier kernel streams its round counters into this caller-owned
  /// block. When null, kernels attach to the calling thread's session
  /// collector iff the session metrics mode (COBRA_METRICS / --metrics)
  /// is not "off". Never consumes randomness, so fixed-seed trajectories
  /// are identical with or without it.
  StepMetrics* metrics = nullptr;

  /// Throws util::CheckError on out-of-range parameters.
  void validate() const {
    COBRA_CHECK(branching.base >= 1);
    COBRA_CHECK(branching.extra_prob >= 0.0 && branching.extra_prob <= 1.0);
    COBRA_CHECK(laziness >= 0.0 && laziness < 1.0);
    COBRA_CHECK(kernel_threads >= 0 && kernel_threads <= 256);
  }
};

}  // namespace cobra::core
