// The Lanczos Ritz extraction: Sturm counts and the Newton top-eigenpair
// solve on symmetric tridiagonal matrices, against closed forms and Jacobi.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

#include "spectral/dense.hpp"
#include "spectral/lanczos.hpp"
#include "util/assert.hpp"

namespace cobra::spectral {
namespace {

// Top and bottom eigenvalue of T from a wide bracket, as the tests'
// callers outside Lanczos would use it.
TridiagonalTop top_of(const std::vector<double>& diag,
                      const std::vector<double>& off) {
  return tridiagonal_top(diag, off, -100.0, 100.0, 0.0);
}

TridiagonalTop bottom_of(std::vector<double> diag,
                         const std::vector<double>& off) {
  for (double& d : diag) d = -d;
  TridiagonalTop t = top_of(diag, off);
  t.value = -t.value;
  return t;
}

// Every eigenvalue of T, recovered one count at a time: the spectrum lies
// strictly between consecutive count steps.
void expect_counts_match(const std::vector<double>& diag,
                         const std::vector<double>& off,
                         const std::vector<double>& ascending) {
  const std::size_t m = ascending.size();
  EXPECT_EQ(tridiagonal_count_below(diag, off, ascending.front() - 1.0), 0u);
  EXPECT_EQ(tridiagonal_count_below(diag, off, ascending.back() + 1.0), m);
  for (std::size_t i = 0; i + 1 < m; ++i) {
    if (ascending[i + 1] - ascending[i] < 1e-9) continue;  // multiple
    const double mid = 0.5 * (ascending[i] + ascending[i + 1]);
    EXPECT_EQ(tridiagonal_count_below(diag, off, mid), i + 1) << "i=" << i;
  }
}

TEST(Tridiag, EmptyAndSingleton) {
  const std::vector<double> none, single = {4.2};
  EXPECT_THROW(tridiagonal_count_below(none, none, 0.0), util::CheckError);
  const TridiagonalTop one = top_of(single, none);
  EXPECT_DOUBLE_EQ(one.value, 4.2);
  EXPECT_DOUBLE_EQ(one.last, 1.0);
  EXPECT_EQ(tridiagonal_count_below(single, none, 4.0), 0u);
  EXPECT_EQ(tridiagonal_count_below(single, none, 4.5), 1u);
}

TEST(Tridiag, DiagonalOnly) {
  const std::vector<double> diag = {3.0, -1.0, 2.0}, off = {0.0, 0.0};
  const TridiagonalTop top = top_of(diag, off);
  EXPECT_NEAR(top.value, 3.0, 1e-12);
  EXPECT_NEAR(bottom_of(diag, off).value, -1.0, 1e-12);
  expect_counts_match(diag, off, {-1.0, 2.0, 3.0});
}

TEST(Tridiag, PathAdjacencyClosedForm) {
  // Zero diagonal and unit off-diagonal (path adjacency): eigenvalues
  // 2 cos(k pi / (n+1)), k = 1..n, with eigenvectors
  // sqrt(2/(n+1)) sin(i k pi / (n+1)).
  const std::size_t n = 12;
  const std::vector<double> diag(n, 0.0), off(n - 1, 1.0);
  std::vector<double> expected;
  for (std::size_t k = 1; k <= n; ++k)
    expected.push_back(
        2.0 * std::cos(static_cast<double>(k) * std::numbers::pi /
                       static_cast<double>(n + 1)));
  std::sort(expected.begin(), expected.end());
  expect_counts_match(diag, off, expected);

  const double h = std::numbers::pi / static_cast<double>(n + 1);
  const double last = std::sqrt(2.0 / static_cast<double>(n + 1)) *
                      std::fabs(std::sin(static_cast<double>(n) * h));
  const TridiagonalTop top = top_of(diag, off);
  EXPECT_NEAR(top.value, expected.back(), 1e-12);
  EXPECT_NEAR(top.last, last, 1e-9);
  const TridiagonalTop bottom = bottom_of(diag, off);
  EXPECT_NEAR(bottom.value, expected.front(), 1e-12);
  EXPECT_NEAR(bottom.last, last, 1e-9);
}

TEST(Tridiag, MatchesJacobiOnRandomTridiagonal) {
  const std::size_t n = 20;
  std::vector<double> diag(n), off(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    diag[i] = std::sin(static_cast<double>(3 * i + 1));
  for (std::size_t i = 0; i + 1 < n; ++i)
    off[i] = std::cos(static_cast<double>(2 * i + 5));

  DenseSymmetric a(n);
  for (std::size_t i = 0; i < n; ++i) a.at(i, i) = diag[i];
  for (std::size_t i = 0; i + 1 < n; ++i) a.set_symmetric(i, i + 1, off[i]);

  const auto jacobi = jacobi_eigenvalues(a);
  expect_counts_match(diag, off, jacobi);
  EXPECT_NEAR(top_of(diag, off).value, jacobi.back(), 1e-12);
  EXPECT_NEAR(bottom_of(diag, off).value, jacobi.front(), 1e-12);
}

TEST(Tridiag, WarmStartFromTheLeadingBlockTop) {
  // Lanczos' use: the previous (leading-block) top is a lower bound, and
  // the Newton iterate must land on the same value from any guess.
  const std::size_t n = 30;
  std::vector<double> diag(n), off(n - 1);
  for (std::size_t i = 0; i < n; ++i)
    diag[i] = 0.3 * std::sin(static_cast<double>(7 * i + 2));
  for (std::size_t i = 0; i + 1 < n; ++i)
    off[i] = 0.2 + 0.3 * std::fabs(std::cos(static_cast<double>(i + 1)));
  const std::vector<double> lead_diag(diag.begin(), diag.end() - 1);
  const std::vector<double> lead_off(off.begin(), off.end() - 1);
  const double lo = top_of(lead_diag, lead_off).value;
  const TridiagonalTop cold = top_of(diag, off);
  EXPECT_GE(cold.value, lo);  // Cauchy interlacing
  for (const double guess : {lo, lo + 1e-9, lo + 0.1, 5.0}) {
    const TridiagonalTop warm = tridiagonal_top(diag, off, lo, 5.0, guess);
    EXPECT_NEAR(warm.value, cold.value, 1e-14) << "guess " << guess;
    EXPECT_NEAR(warm.last, cold.last, 1e-10) << "guess " << guess;
  }
}

TEST(Tridiag, RejectsBadSizes) {
  const std::vector<double> none, one = {1.0}, two = {1.0, 2.0};
  EXPECT_THROW(tridiagonal_count_below(two, none, 0.0), util::CheckError);
  EXPECT_THROW(tridiagonal_top(none, none, 0.0, 1.0, 0.5), util::CheckError);
  EXPECT_THROW(tridiagonal_top(two, none, 0.0, 3.0, 1.0), util::CheckError);
  EXPECT_THROW(tridiagonal_top(one, none, 1.0, 0.0, 0.5), util::CheckError);
}

}  // namespace
}  // namespace cobra::spectral
