#include "blockenc/dense_embedding.hpp"

#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"

namespace mpqls::blockenc {

namespace {

/// W diag(c) W^T for a square W.
linalg::Matrix<double> scaled_gram(const linalg::Matrix<double>& W,
                                   const linalg::Vector<double>& c) {
  const std::size_t N = W.rows();
  linalg::Matrix<double> wc(N, N);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) wc(i, j) = W(i, j) * c[j];
  }
  return linalg::gemm(wc, linalg::transpose(W));
}

}  // namespace

BlockEncoding dense_embedding(const linalg::Matrix<double>& A, double alpha) {
  return dense_embedding(A, linalg::jacobi_svd(A), alpha);
}

BlockEncoding dense_embedding(const linalg::Matrix<double>& A, const linalg::Svd& svd,
                              double alpha) {
  const std::size_t dim = A.rows();
  expects(dim == A.cols(), "dense_embedding: square matrix required");
  expects(std::has_single_bit(dim), "dense_embedding: dimension must be a power of two");
  expects(svd.U.rows() == dim && svd.U.cols() == dim && svd.V.rows() == dim &&
              svd.V.cols() == dim && svd.sigma.size() == dim,
          "dense_embedding: SVD factors do not match A");
  const auto n = static_cast<std::uint32_t>(std::countr_zero(dim));

  if (alpha <= 0.0) {
    // Tight subnormalization with headroom so sqrt(1 - s^2) stays real.
    alpha = svd.sigma.front() * (1.0 + 1e-12);
  }
  expects(svd.sigma.front() <= alpha * (1.0 + 1e-9), "dense_embedding: alpha < ||A||_2");

  // B = A/alpha = W S V^T with S = Sigma/alpha. The diagonal blocks are B
  // and -B^T themselves; the completion needs W sqrt(I-S^2) W^T and
  // V sqrt(I-S^2) V^T.
  const std::size_t N = dim;
  linalg::Vector<double> c(N);
  for (std::size_t j = 0; j < N; ++j) {
    const double s = svd.sigma[j] / alpha;
    c[j] = std::sqrt(std::fmax(0.0, 1.0 - s * s));
  }
  const auto C12 = scaled_gram(svd.U, c);  // W sqrt(I-S^2) W^T
  const auto C21 = scaled_gram(svd.V, c);  // V sqrt(I-S^2) V^T

  linalg::Matrix<qsim::c64> U(2 * N, 2 * N);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      U(i, j) = A(i, j) / alpha;
      U(i, N + j) = C12(i, j);
      U(N + i, j) = C21(i, j);
      U(N + i, N + j) = -A(j, i) / alpha;
    }
  }

  BlockEncoding be;
  be.n_data = n;
  be.n_anc = 1;
  be.alpha = alpha;
  be.method = "dense-embedding";
  be.circuit = qsim::Circuit(n + 1);
  std::vector<std::uint32_t> targets(n + 1);
  for (std::uint32_t q = 0; q <= n; ++q) targets[q] = q;  // ancilla = top bit
  be.circuit.unitary(targets, std::move(U));
  return be;
}

}  // namespace mpqls::blockenc
