#include "spectral/lanczos.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "util/assert.hpp"

namespace cobra::spectral {

namespace {

// Pivots smaller than this are replaced by -kPivotFloor (LAPACK dstebz's
// convention, which keeps the count a valid Sturm count); large enough
// that 1/e^2 cannot overflow.
constexpr double kPivotFloor = 1e-150;
constexpr double kEps = std::numeric_limits<double>::epsilon();
// Newton plus bisection fallback: bisection alone from any double-width
// bracket ends within ~64 halvings.
constexpr int kMaxRootIterations = 128;
// beta below this means the Krylov space is exhausted: the Ritz values are
// then the exact extremes of N on the complement.
constexpr double kKrylovExhausted = 1e-12;
// Steps allowed beyond the Krylov bound n before the solve is refused.
constexpr std::uint32_t kStepSlack = 16;

struct Pivots {
  std::size_t below = 0;   // negative pivots: eigenvalues of T below x
  double first = 0.0;      // first pivot e_0(x)
  double slope = 0.0;      // d e_0 / dx
  double curvature = 0.0;  // d^2 e_0 / dx^2
  double tail = 0.0;       // |z_{m-1} / z_0|, see udu_pivots
};

// Bottom-up (UDU^T) pivots of T - x I: e_{m-1} = alpha_{m-1} - x,
// e_j = alpha_j - x - beta_j^2 / e_{j+1}, with e_0's first two
// x-derivatives. At an eigenvalue of an unreduced T, e_0 = 0, its
// eigenvector z solves z_{j+1} = -beta_j z_j / e_{j+1}, and
// -1/slope = z_0^2 / |z|^2.
//
// Bottom-up rather than top-down because the poles of e_0 are the
// eigenvalues of the trailing blocks of T, which stay apart from an
// extreme Ritz value, while the leading blocks are the earlier Lanczos
// matrices, whose Ritz values converge onto it: top-down, the last
// component of a converged Ritz vector drowns in rounding.
Pivots udu_pivots(std::span<const double> alpha,
                  std::span<const double> beta, double x) {
  Pivots p;
  double e = alpha.back() - x;
  double slope = -1.0;
  double curvature = 0.0;
  double tail = 1.0;
  for (std::size_t j = alpha.size() - 1; j-- > 0;) {
    if (std::fabs(e) < kPivotFloor) e = -kPivotFloor;
    p.below += e < 0.0 ? 1 : 0;
    const double b2 = beta[j] * beta[j];
    const double r = 1.0 / e;
    tail *= std::fabs(beta[j] * r);
    curvature = b2 * (r * r) * (curvature - 2.0 * slope * slope * r);
    slope = -1.0 + b2 * slope * (r * r);
    e = alpha[j] - x - b2 * r;
  }
  if (std::fabs(e) < kPivotFloor) e = -kPivotFloor;
  p.below += e < 0.0 ? 1 : 0;
  p.first = e;
  p.slope = slope;
  p.curvature = curvature;
  p.tail = tail;
  return p;
}

// Top eigenvalue of [[theta, b], [b, a]]. If theta is the top eigenvalue
// of T_k, this bounds the top eigenvalue of T_k bordered by (b, a): on
// x > theta the secular term b^2 sum_i c_i^2 / (x - theta_i) is at most
// b^2 / (x - theta).
double bordered_bound(double theta, double b, double a) {
  return 0.5 * ((theta + a) + std::sqrt((theta - a) * (theta - a) +
                                        4.0 * b * b));
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

// One extreme of the Ritz spectrum, tracked across steps: the top of T_k
// (the bottom is tracked as the top of -T_k).
struct RitzExtreme {
  TridiagonalTop pair;
  double step = 0.0;  // how far the value moved on the last update

  // T grew by alpha.back() and beta.back(): re-solve, warm-started.
  void update(std::span<const double> alpha, std::span<const double> beta) {
    const double lo = pair.value;
    const double a = alpha.back();
    const double hi = bordered_bound(lo, beta.back(), a) +
                      8.0 * kEps * (1.0 + std::fabs(lo) + std::fabs(a));
    const double nudge = std::max(step, 8.0 * kEps * (1.0 + std::fabs(lo)));
    const TridiagonalTop next =
        tridiagonal_top(alpha, beta, lo, hi, std::min(lo + nudge, hi));
    step = next.value - lo;
    pair = next;
  }
};

}  // namespace

void apply_normalized_adjacency(const graph::Graph& g,
                                std::span<const double> inv_sqrt_deg,
                                std::span<const double> x,
                                std::span<double> y) {
  const graph::VertexId n = g.num_vertices();
  for (graph::VertexId u = 0; u < n; ++u) {
    double acc = 0.0;
    for (const graph::VertexId v : g.neighbors(u))
      acc += x[v] * inv_sqrt_deg[v];
    y[u] = acc * inv_sqrt_deg[u];
  }
}

std::size_t tridiagonal_count_below(std::span<const double> alpha,
                                    std::span<const double> beta, double x) {
  COBRA_CHECK(!alpha.empty() && beta.size() + 1 == alpha.size());
  return udu_pivots(alpha, beta, x).below;
}

TridiagonalTop tridiagonal_top(std::span<const double> alpha,
                               std::span<const double> beta, double lo,
                               double hi, double guess) {
  COBRA_CHECK(!alpha.empty() && beta.size() + 1 == alpha.size());
  COBRA_CHECK(lo <= hi);
  const std::size_t m = alpha.size();
  double x = std::clamp(guess, lo, hi);
  Pivots p = udu_pivots(alpha, beta, x);
  for (int it = 0; it < kMaxRootIterations; ++it) {
    if (p.below == m) {
      hi = x;  // T - x I negative definite: x is above the top
    } else {
      lo = x;
    }
    // Above every eigenvalue of the trailing block e_0 is convex and
    // decreasing, with the top eigenvalue as its root.
    const bool convex = p.below - (p.first < 0.0 ? 1 : 0) == m - 1;
    const double tol = 4.0 * kEps * std::max(1.0, std::fabs(x));
    double next = x - p.first / p.slope;
    if (convex && std::isfinite(next) && next >= lo && next <= hi) {
      const double dx = next - x;
      // Newton converges quadratically: the step lands within about
      // curvature / (2 |slope|) dx^2 of the root, so a step that small
      // needs no confirming pass (the bound is taken with a factor 2).
      if (p.curvature * dx * dx <= -p.slope * tol) {
        x = next;
        break;
      }
    } else {
      next = lo + 0.5 * (hi - lo);
    }
    if (hi - lo <= tol) break;
    x = next;
    p = udu_pivots(alpha, beta, x);
  }
  // |z_{m-1}| / |z| = tail * |z_0| / |z|.
  double last = 0.0;  // infinite slope: a vanishing first component
  if (!std::isfinite(p.tail)) {
    last = 1.0;  // no usable vector, so no certificate
  } else if (std::isfinite(p.slope)) {
    last = std::min(1.0, p.tail / std::sqrt(-p.slope));
  }
  return {x, last};
}

LanczosResult lanczos_extremes(const graph::Graph& g, rng::Rng& rng) {
  const graph::VertexId n = g.num_vertices();
  COBRA_CHECK(n >= 2);
  COBRA_CHECK_MSG(g.min_degree() >= 1, "isolated vertex");

  std::vector<double> inv_sqrt_deg(n);
  std::vector<double> principal(n);  // unit eigenvector for eigenvalue 1
  for (graph::VertexId u = 0; u < n; ++u) {
    const double d = static_cast<double>(g.degree(u));
    inv_sqrt_deg[u] = 1.0 / std::sqrt(d);
    principal[u] = std::sqrt(d);
  }
  {
    const double pn = std::sqrt(dot(principal, principal));
    for (double& value : principal) value /= pn;
  }

  // The recurrence keeps v_{k-1}, v_k and w = N v_k - ..., nothing more.
  std::vector<double> v_prev(n, 0.0), v(n), w(n);
  for (double& value : v) value = rng.uniform01() - 0.5;
  {
    const double c = dot(v, principal);
    for (graph::VertexId u = 0; u < n; ++u) v[u] -= c * principal[u];
    const double vn = std::sqrt(dot(v, v));
    COBRA_CHECK(vn > 1e-12);
    for (double& value : v) value /= vn;
  }

  std::vector<double> alpha, neg_alpha, beta;
  RitzExtreme top, bottom;  // bottom tracks the top of -T
  LanczosResult result;
  double b_prev = 0.0;
  const std::uint32_t max_steps = n + kStepSlack;
  for (std::uint32_t step = 0;; ++step) {
    COBRA_CHECK_MSG(step < max_steps,
                    g.name() << ": Lanczos did not converge (n = " << n
                             << ", steps = " << step << ", Ritz residual "
                             << result.lambda_err << " > "
                             << kLambdaResidualTol << ")");
    apply_normalized_adjacency(g, inv_sqrt_deg, v, w);
    double a = dot(w, v);
    // Three-term recurrence, then project out the principal vector and
    // re-orthogonalise once against v_k (folded into alpha).
    double c_principal = 0.0, c_local = 0.0;
    for (graph::VertexId u = 0; u < n; ++u) {
      w[u] -= a * v[u] + b_prev * v_prev[u];
      c_principal += w[u] * principal[u];
      c_local += w[u] * v[u];
    }
    double norm2 = 0.0;
    for (graph::VertexId u = 0; u < n; ++u) {
      w[u] -= c_principal * principal[u] + c_local * v[u];
      norm2 += w[u] * w[u];
    }
    a += c_local;
    const double b = std::sqrt(norm2);
    alpha.push_back(a);
    neg_alpha.push_back(-a);

    if (step == 0) {
      top.pair = {a, 1.0};
      bottom.pair = {-a, 1.0};
    } else {
      top.update(alpha, beta);
      bottom.update(neg_alpha, beta);
    }
    result.steps = step + 1;
    result.mu2 = top.pair.value;
    result.mu_min = -bottom.pair.value;
    result.lambda_err = b * std::max(top.pair.last, bottom.pair.last);
    if (b < kKrylovExhausted || result.lambda_err <= kLambdaResidualTol)
      break;

    beta.push_back(b);
    b_prev = b;
    std::swap(v_prev, v);
    std::swap(v, w);
    const double inv_b = 1.0 / b;
    for (double& value : v) value *= inv_b;
  }
  result.lambda = std::max(std::fabs(result.mu2), std::fabs(result.mu_min));
  return result;
}

}  // namespace cobra::spectral
