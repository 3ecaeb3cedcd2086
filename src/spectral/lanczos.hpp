// Lanczos iteration on the normalised adjacency N = D^{-1/2} A D^{-1/2}
// restricted to the complement of its principal eigenvector sqrt(deg).
//
// Gives both extreme eigenvalues (mu_2 from above, mu_n from below) in one
// run, which the paper's lambda = max(|mu_2|, |mu_n|) needs. The solve is a
// plain three-term recurrence: each new vector has the principal vector
// projected out and is re-orthogonalised once against its predecessor,
// and only the last two vectors are kept, so memory is O(n) and a step is
// one matvec plus O(n + k). Losing global orthogonality only adds ghost
// copies of Ritz values that have already converged; it does not move the
// extreme ones.
//
// The stop rule is a certificate: both extreme Ritz pairs (theta, y) must
// satisfy |beta_k s_k| <= kLambdaResidualTol, where s_k is the last
// component of the tridiagonal eigenvector. ||N y - theta y|| equals that
// residual, so an eigenvalue of N lies within it of theta. The extreme
// Ritz values come from Newton steps on the pivots of T_k (a Sturm
// sequence), warm-started from the previous step's values — by Cauchy
// interlacing the top one never decreases and the bottom one never
// increases — so the test costs a few O(k) passes per step.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>

#include "graph/graph.hpp"
#include "rng/rng.hpp"

namespace cobra::spectral {

/// Residual bound |beta_k s_k| both extreme Ritz pairs must meet.
inline constexpr double kLambdaResidualTol = 1e-8;

struct LanczosResult {
  double mu2 = 0.0;         // largest eigenvalue on the complement (mu_2)
  double mu_min = 0.0;      // smallest eigenvalue of N
  double lambda = 0.0;      // max(|mu2|, |mu_min|)
  double lambda_err = 0.0;  // larger of the two Ritz residuals
  std::uint32_t steps = 0;  // matvecs (= Lanczos steps) taken
};

/// y = N x for N = D^{-1/2} A D^{-1/2}, given inv_sqrt_deg[u] =
/// deg(u)^{-1/2}: the one matvec each Lanczos step costs.
void apply_normalized_adjacency(const graph::Graph& g,
                                std::span<const double> inv_sqrt_deg,
                                std::span<const double> x,
                                std::span<double> y);

/// Runs Lanczos from a random start vector drawn from `rng` until both
/// extreme Ritz residuals are <= kLambdaResidualTol or the Krylov space is
/// exhausted. Throws util::CheckError naming the graph, n, steps and
/// residual if that takes more than n + a small slack steps.
LanczosResult lanczos_extremes(const graph::Graph& g, rng::Rng& rng);

/// Number of eigenvalues below `x` of the symmetric tridiagonal matrix
/// with diagonal `alpha` (size m >= 1) and off-diagonal `beta` (size
/// m - 1): the count of negative pivots of T - x I (Sturm sequence).
std::size_t tridiagonal_count_below(std::span<const double> alpha,
                                    std::span<const double> beta, double x);

/// The largest eigenvalue of a symmetric tridiagonal T and the magnitude of
/// the last component of its unit eigenvector (defined when T is
/// unreduced, i.e. no off-diagonal entry is 0, as Lanczos' T always is).
/// `last` comes from the pivot pass before the final Newton step, so its
/// relative error is of the order of that step, ample for a residual.
struct TridiagonalTop {
  double value = 0.0;
  double last = 0.0;
};

/// Largest eigenvalue of T (as in tridiagonal_count_below), which must lie
/// in [lo, hi], started at `guess`. Each iterate costs one O(m) pass of
/// bottom-up pivots. Above every eigenvalue of T's trailing (m-1)x(m-1)
/// block the first pivot is convex and decreasing in x with the wanted
/// root, so the step there is Newton's; elsewhere, or when Newton leaves
/// the bracket, it bisects. The smallest eigenvalue is the negated top of
/// -T.
TridiagonalTop tridiagonal_top(std::span<const double> alpha,
                               std::span<const double> beta, double lo,
                               double hi, double guess);

}  // namespace cobra::spectral
