#include "linalg/sparse.hpp"

#include <cmath>

namespace mpqls::linalg {

CsrMatrix CsrMatrix::from_dense(const Matrix<double>& A, double tol) {
  CsrMatrix m;
  m.cols_count_ = A.cols();
  m.row_ptr_.reserve(A.rows() + 1);
  m.row_ptr_.push_back(0);
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < A.cols(); ++j) {
      if (std::fabs(A(i, j)) > tol) {
        m.col_idx_.push_back(j);
        m.values_.push_back(A(i, j));
      }
    }
    m.row_ptr_.push_back(m.col_idx_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::dirichlet_laplacian(std::size_t n) {
  expects(n >= 2, "dirichlet_laplacian: n >= 2 required");
  CsrMatrix m;
  m.cols_count_ = n;
  m.row_ptr_.reserve(n + 1);
  m.row_ptr_.push_back(0);
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) {
      m.col_idx_.push_back(i - 1);
      m.values_.push_back(-1.0);
    }
    m.col_idx_.push_back(i);
    m.values_.push_back(2.0);
    if (i + 1 < n) {
      m.col_idx_.push_back(i + 1);
      m.values_.push_back(-1.0);
    }
    m.row_ptr_.push_back(m.col_idx_.size());
  }
  return m;
}

CsrMatrix CsrMatrix::dirichlet_laplacian_2d(std::size_t nx, std::size_t ny) {
  expects(nx >= 2 && ny >= 2, "dirichlet_laplacian_2d: grid >= 2x2 required");
  const std::size_t n = nx * ny;
  CsrMatrix m;
  m.cols_count_ = n;
  m.row_ptr_.reserve(n + 1);
  m.row_ptr_.push_back(0);
  for (std::size_t y = 0; y < ny; ++y) {
    for (std::size_t x = 0; x < nx; ++x) {
      const std::size_t i = y * nx + x;
      // Row entries in ascending column order: (y-1), (x-1), self, (x+1), (y+1).
      if (y > 0) {
        m.col_idx_.push_back(i - nx);
        m.values_.push_back(-1.0);
      }
      if (x > 0) {
        m.col_idx_.push_back(i - 1);
        m.values_.push_back(-1.0);
      }
      m.col_idx_.push_back(i);
      m.values_.push_back(4.0);
      if (x + 1 < nx) {
        m.col_idx_.push_back(i + 1);
        m.values_.push_back(-1.0);
      }
      if (y + 1 < ny) {
        m.col_idx_.push_back(i + nx);
        m.values_.push_back(-1.0);
      }
      m.row_ptr_.push_back(m.col_idx_.size());
    }
  }
  return m;
}

Vector<double> CsrMatrix::multiply(const Vector<double>& x) const {
  expects(x.size() == cols_count_, "csr multiply: size mismatch");
  Vector<double> y(rows(), 0.0);
  for (std::size_t i = 0; i < rows(); ++i) {
    double s = 0.0;
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      s += values_[k] * x[col_idx_[k]];
    }
    y[i] = s;
  }
  count_flops(2 * nonzeros());
  return y;
}

Matrix<double> CsrMatrix::to_dense() const {
  Matrix<double> A(rows(), cols());
  for (std::size_t i = 0; i < rows(); ++i) {
    for (std::size_t k = row_ptr_[i]; k < row_ptr_[i + 1]; ++k) {
      A(i, col_idx_[k]) = values_[k];
    }
  }
  return A;
}

CgResult cg_solve(const CsrMatrix& A, const Vector<double>& b, const CgOptions& opts) {
  const std::size_t n = b.size();
  expects(A.rows() == n && A.cols() == n, "cg: dimension mismatch");
  CgResult res;
  res.x.assign(n, 0.0);
  const double norm_b = nrm2(b);
  if (norm_b == 0.0) {
    res.converged = true;
    return res;
  }
  Vector<double> r = b;          // b - A*0
  Vector<double> p = r;
  double rs = dot(r, r);
  for (int it = 0; it < opts.max_iterations; ++it) {
    const auto ap = A.multiply(p);
    const double alpha = rs / dot(p, ap);
    axpy(alpha, p, res.x);
    axpy(-alpha, ap, r);
    const double rs_new = dot(r, r);
    res.iterations = it + 1;
    res.relative_residual = std::sqrt(rs_new) / norm_b;
    if (res.relative_residual <= opts.tolerance) {
      res.converged = true;
      break;
    }
    const double beta = rs_new / rs;
    for (std::size_t i = 0; i < n; ++i) p[i] = r[i] + beta * p[i];
    rs = rs_new;
  }
  return res;
}

}  // namespace mpqls::linalg
