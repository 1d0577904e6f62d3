// BLAS-style dense kernels templated on scalar type, serial on the calling
// thread. All kernels report their flop counts to the thread-local flop
// ledger (see flops.hpp) so the classical-cost columns of the paper's
// Table II can be measured rather than asserted.
#pragma once

#include <cmath>
#include <complex>

#include "common/contracts.hpp"
#include "linalg/flops.hpp"
#include "linalg/matrix.hpp"

namespace mpqls::linalg {

namespace detail {
template <typename T>
double abs_as_double(const T& v) {
  if constexpr (is_complex_v<T>) {
    return std::abs(std::complex<double>(static_cast<double>(v.real()),
                                         static_cast<double>(v.imag())));
  } else {
    return std::fabs(static_cast<double>(v));
  }
}

template <typename T>
T conj_val(const T& v) {
  if constexpr (is_complex_v<T>) {
    return std::conj(v);
  } else {
    return v;
  }
}
}  // namespace detail

/// dot(x, y) = sum_i conj(x_i) * y_i (conjugate-linear in the first
/// argument for complex scalars, matching the physics convention).
template <typename T>
T dot(const Vector<T>& x, const Vector<T>& y) {
  expects(x.size() == y.size(), "dot: size mismatch");
  T s{};
  for (std::size_t i = 0; i < x.size(); ++i) s += detail::conj_val(x[i]) * y[i];
  count_flops(2 * x.size());
  return s;
}

/// y += alpha * x
template <typename T>
void axpy(T alpha, const Vector<T>& x, Vector<T>& y) {
  expects(x.size() == y.size(), "axpy: size mismatch");
  for (std::size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
  count_flops(2 * x.size());
}

template <typename T>
void scal(T alpha, Vector<T>& x) {
  for (auto& v : x) v *= alpha;
  count_flops(x.size());
}

/// Euclidean norm, computed with scaling so that half precision does not
/// overflow (max half is 65504; squaring mid-size entries would).
template <typename T>
double nrm2(const Vector<T>& x) {
  double scale = 0.0;
  for (const auto& v : x) scale = std::fmax(scale, detail::abs_as_double(v));
  if (scale == 0.0) return 0.0;
  double ssq = 0.0;
  for (const auto& v : x) {
    const double a = detail::abs_as_double(v) / scale;
    ssq += a * a;
  }
  count_flops(3 * x.size());
  return scale * std::sqrt(ssq);
}

template <typename T>
double norm_inf(const Vector<T>& x) {
  double m = 0.0;
  for (const auto& v : x) m = std::fmax(m, detail::abs_as_double(v));
  return m;
}

/// y = A * x
template <typename T>
Vector<T> matvec(const Matrix<T>& A, const Vector<T>& x) {
  expects(A.cols() == x.size(), "matvec: size mismatch");
  Vector<T> y(A.rows(), T{});
  for (std::size_t i = 0; i < A.rows(); ++i) {
    T s{};
    const T* arow = A.row(i);
    for (std::size_t j = 0; j < A.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  count_flops(2 * A.rows() * A.cols());
  return y;
}

/// y = A^T * x (A^H for complex scalars)
template <typename T>
Vector<T> matvec_transposed(const Matrix<T>& A, const Vector<T>& x) {
  expects(A.rows() == x.size(), "matvec_transposed: size mismatch");
  Vector<T> y(A.cols(), T{});
  for (std::size_t i = 0; i < A.rows(); ++i) {
    const T* arow = A.row(i);
    const T xi = x[i];
    for (std::size_t j = 0; j < A.cols(); ++j) y[j] += detail::conj_val(arow[j]) * xi;
  }
  count_flops(2 * A.rows() * A.cols());
  return y;
}

/// C = A * B
template <typename T>
Matrix<T> gemm(const Matrix<T>& A, const Matrix<T>& B) {
  expects(A.cols() == B.rows(), "gemm: inner dimension mismatch");
  Matrix<T> C(A.rows(), B.cols());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t k = 0; k < A.cols(); ++k) {
      const T aik = A(i, k);
      const T* brow = B.row(k);
      T* crow = C.row(i);
      for (std::size_t j = 0; j < B.cols(); ++j) crow[j] += aik * brow[j];
    }
  }
  count_flops(2 * A.rows() * A.cols() * B.cols());
  return C;
}

/// A^T (A^H for complex scalars)
template <typename T>
Matrix<T> transpose(const Matrix<T>& A) {
  Matrix<T> B(A.cols(), A.rows());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < A.cols(); ++j) B(j, i) = detail::conj_val(A(i, j));
  }
  return B;
}

template <typename T>
Vector<T> add(const Vector<T>& x, const Vector<T>& y) {
  expects(x.size() == y.size(), "add: size mismatch");
  Vector<T> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] + y[i];
  count_flops(x.size());
  return z;
}

template <typename T>
Vector<T> subtract(const Vector<T>& x, const Vector<T>& y) {
  expects(x.size() == y.size(), "subtract: size mismatch");
  Vector<T> z(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) z[i] = x[i] - y[i];
  count_flops(x.size());
  return z;
}

/// r = b - A*x, the residual kernel of iterative refinement (computed at
/// the working precision of T).
template <typename T>
Vector<T> residual(const Matrix<T>& A, const Vector<T>& x, const Vector<T>& b) {
  return subtract(b, matvec(A, x));
}

/// Frobenius norm of A.
template <typename T>
double norm_frobenius(const Matrix<T>& A) {
  double ssq = 0.0;
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < A.cols(); ++j) {
      const double a = detail::abs_as_double(A(i, j));
      ssq += a * a;
    }
  }
  return std::sqrt(ssq);
}

/// max_ij |A_ij - B_ij|
template <typename T>
double max_abs_diff(const Matrix<T>& A, const Matrix<T>& B) {
  expects(A.rows() == B.rows() && A.cols() == B.cols(), "max_abs_diff: shape mismatch");
  double m = 0.0;
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < A.cols(); ++j) {
      m = std::fmax(m, detail::abs_as_double(static_cast<T>(A(i, j) - B(i, j))));
    }
  }
  return m;
}

}  // namespace mpqls::linalg
