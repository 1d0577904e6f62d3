// One-sided Jacobi (Hestenes) SVD for real matrices. High relative accuracy
// on small singular values, which matters here: the QSVT polynomial acts on
// the singular values near 1/kappa, so the reference decomposition must
// resolve them well.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/matrix.hpp"

namespace mpqls::linalg {

namespace detail {

/// (x, y) <- (c x - s y, s x + c y) over `len` contiguous entries.
inline void rotate_rows(double* x, double* y, std::size_t len, double c, double s) {
#pragma omp simd
  for (std::size_t i = 0; i < len; ++i) {
    const double xi = x[i];
    const double yi = y[i];
    x[i] = c * xi - s * yi;
    y[i] = s * xi + c * yi;
  }
}

}  // namespace detail

struct Svd {
  Matrix<double> U;        ///< m x n, orthonormal columns
  Vector<double> sigma;    ///< descending, non-negative
  Matrix<double> V;        ///< n x n orthogonal
  int sweeps = 0;
};

/// A = U diag(sigma) V^T for an m x n real matrix with m >= n.
inline Svd jacobi_svd(const Matrix<double>& A, double tol = 1e-15, int max_sweeps = 60) {
  const std::size_t m = A.rows();
  const std::size_t n = A.cols();
  expects(m >= n, "jacobi_svd: requires rows >= cols");

  // One-sided Jacobi: orthogonalize pairs of columns of A by plane
  // rotations applied on the right; V accumulates the rotations. Both are
  // swept transposed, so column j of A (and of V) is the contiguous row j
  // of At (and Vt) and every dot product and rotation is a unit-stride loop.
  Matrix<double> At = transpose(A);
  Matrix<double> Vt = Matrix<double>::identity(n);
  Svd out;

  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    bool converged = true;
    out.sweeps = sweep + 1;
    for (std::size_t p = 0; p < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        double* ap = At.row(p);
        double* aq = At.row(q);
        double app = 0.0, aqq = 0.0, apq = 0.0;
#pragma omp simd reduction(+ : app, aqq, apq)
        for (std::size_t i = 0; i < m; ++i) {
          app += ap[i] * ap[i];
          aqq += aq[i] * aq[i];
          apq += ap[i] * aq[i];
        }
        if (std::fabs(apq) <= tol * std::sqrt(app * aqq) || apq == 0.0) continue;
        converged = false;
        const double theta = (aqq - app) / (2.0 * apq);
        const double t = std::copysign(1.0, theta) /
                         (std::fabs(theta) + std::sqrt(1.0 + theta * theta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = t * c;
        detail::rotate_rows(ap, aq, m, c, s);
        detail::rotate_rows(Vt.row(p), Vt.row(q), n, c, s);
      }
    }
    if (converged) break;
  }

  // Row norms of At are the singular values; normalize rows into U.
  Vector<double> sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    const double* aj = At.row(j);
    double s = 0.0;
#pragma omp simd reduction(+ : s)
    for (std::size_t i = 0; i < m; ++i) s += aj[i] * aj[i];
    sigma[j] = std::sqrt(s);
  }
  std::vector<std::size_t> idx(n);
  std::iota(idx.begin(), idx.end(), std::size_t{0});
  std::sort(idx.begin(), idx.end(),
            [&sigma](std::size_t a, std::size_t b) { return sigma[a] > sigma[b]; });

  out.U = Matrix<double>(m, n);
  out.V = Matrix<double>(n, n);
  out.sigma.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t k = idx[j];
    out.sigma[j] = sigma[k];
    const double inv = (sigma[k] > 0.0) ? 1.0 / sigma[k] : 0.0;
    const double* ak = At.row(k);
    const double* vk = Vt.row(k);
    for (std::size_t i = 0; i < m; ++i) out.U(i, j) = ak[i] * inv;
    for (std::size_t i = 0; i < n; ++i) out.V(i, j) = vk[i];
  }
  return out;
}

/// Spectral norm ||A||_2 (largest singular value).
inline double norm2(const Matrix<double>& A) {
  return jacobi_svd(A.rows() >= A.cols() ? A : transpose(A)).sigma.front();
}

/// 2-norm condition number sigma_max / sigma_min.
inline double cond2(const Matrix<double>& A) {
  const auto svd = jacobi_svd(A);
  expects(svd.sigma.back() > 0.0, "cond2: singular matrix");
  return svd.sigma.front() / svd.sigma.back();
}

}  // namespace mpqls::linalg
