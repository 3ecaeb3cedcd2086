// Dense symmetric eigenvalue machinery (exact oracle for small graphs).
//
// The large-graph path (Lanczos) is validated against the cyclic Jacobi
// solver here, which is slow (O(n^3) per sweep) but unconditionally
// robust and accurate to machine precision.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace cobra::spectral {

/// Row-major dense symmetric matrix.
class DenseSymmetric {
 public:
  explicit DenseSymmetric(std::size_t n) : n_(n), a_(n * n, 0.0) {}

  [[nodiscard]] std::size_t size() const { return n_; }

  double& at(std::size_t i, std::size_t j) { return a_[i * n_ + j]; }
  [[nodiscard]] double at(std::size_t i, std::size_t j) const {
    return a_[i * n_ + j];
  }

  void set_symmetric(std::size_t i, std::size_t j, double value) {
    at(i, j) = value;
    at(j, i) = value;
  }

 private:
  std::size_t n_;
  std::vector<double> a_;
};

/// All eigenvalues of a symmetric matrix, ascending, via cyclic Jacobi
/// rotations. Destroys no input (works on a copy).
std::vector<double> jacobi_eigenvalues(DenseSymmetric a,
                                       double tolerance = 1e-12,
                                       int max_sweeps = 64);

/// The random-walk-normalised adjacency N = D^{-1/2} A D^{-1/2} of g as a
/// dense matrix. N is symmetric and similar to the walk matrix P = D^{-1}A,
/// so they share eigenvalues; 1 is always the top eigenvalue.
DenseSymmetric normalized_adjacency_dense(const graph::Graph& g);

/// Eigenvalues of the walk matrix of g (ascending), exact via Jacobi.
std::vector<double> walk_spectrum_dense(const graph::Graph& g);

}  // namespace cobra::spectral
