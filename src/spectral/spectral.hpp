// Facade for the paper's spectral quantities.
//
// lambda(G) = max_{i>=2} |mu_i| of the random-walk matrix P = D^{-1} A
// (the paper's "second largest eigenvalue in absolute value"), and the
// eigenvalue gap 1 - lambda, which drives Theorem 1.2.
//
// Also provides closed-form spectra for the standard families (used both by
// tests as ground truth and by experiments to avoid iterative solves).
#pragma once

#include <cstdint>
#include <optional>

#include "graph/graph.hpp"

namespace cobra::spectral {

struct SpectralInfo {
  double lambda = 0.0;      // max_{i >= 2} |mu_i|
  double gap = 0.0;         // 1 - lambda
  bool exact = false;       // dense solve (true) vs iterative (false)
  double lambda_err = 0.0;  // Lanczos Ritz residual bound (0 when dense)
  std::uint32_t steps = 0;  // Lanczos steps (0 when dense)
};

/// Computes lambda(G). Dense Jacobi for n <= `dense_threshold`; above it,
/// a certified Lanczos solve (lanczos.hpp) whose Ritz residual bound is
/// returned as `lambda_err`; a graph it cannot certify throws
/// util::CheckError. `seed` controls the iterative start vector only.
SpectralInfo compute_lambda(const graph::Graph& g, std::uint64_t seed = 1,
                            graph::VertexId dense_threshold = 256);

/// Memoised compute_lambda: results are cached process-wide, keyed by
/// (Graph::fingerprint, seed, dense_threshold), so sharded cells that
/// rebuild an identical graph — same generator, generator seed and scale —
/// reuse one Lanczos/Jacobi solve instead of recomputing the spectrum.
/// Thread-safe; the experiment drivers call this instead of
/// compute_lambda.
SpectralInfo compute_lambda_cached(const graph::Graph& g,
                                   std::uint64_t seed = 1,
                                   graph::VertexId dense_threshold = 256);

/// Hit/miss counters of the compute_lambda_cached cache (tests and cost
/// accounting).
struct SpectralCacheStats {
  std::size_t hits = 0;     ///< calls answered from the cache
  std::size_t misses = 0;   ///< calls that ran a solve
  std::size_t entries = 0;  ///< distinct (graph, seed, threshold) keys held
};

/// Current cache counters.
SpectralCacheStats spectral_cache_stats();

/// Drops all cached spectra and resets the counters (tests).
void clear_spectral_cache();

/// Closed-form lambda for families with known walk spectra. Returns nullopt
/// if the name/parameters are not one of the known cases.
/// Known: complete(n), cycle(n), hypercube(d), star(n),
/// complete_bipartite(a,b), path(n), petersen and torus_power(side, dim)
/// with side >= 3 (lambda_torus).
std::optional<double> theory_lambda(const graph::Graph& g);

// Individual closed forms (walk matrix P eigenvalues).
double lambda_complete(graph::VertexId n);        // 1/(n-1)
double lambda_cycle(graph::VertexId n);           // even n: 1; odd: cos(pi/n)
double lambda2_cycle(graph::VertexId n);          // cos(2 pi / n)
double lambda_hypercube(std::uint32_t d);         // 1 (bipartite)
double lambda2_hypercube(std::uint32_t d);        // 1 - 2/d
double lambda_lazy_hypercube(std::uint32_t d);    // 1 - 1/d  ((I+P)/2)
double lambda_complete_bipartite();               // 1
double lambda_path(graph::VertexId n);            // 1 (bipartite)
double lambda2_path(graph::VertexId n);           // cos(pi/(n-1))
double lambda2_torus(graph::VertexId side, std::uint32_t dim);
// Even side: 1 (bipartite); odd side: max(lambda2_torus, cos(pi/side)).
double lambda_torus(graph::VertexId side, std::uint32_t dim);
double lambda_petersen();                         // 2/3

/// Gap condition of Theorems 1.2/1.5: 1 - lambda > C sqrt(log n / n).
/// Returns (1 - lambda) / sqrt(log n / n), the margin factor experiments
/// report next to their results.
double gap_condition_margin(double lambda, graph::VertexId n);

}  // namespace cobra::spectral
