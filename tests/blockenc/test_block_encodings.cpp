#include <gtest/gtest.h>

#include <cmath>

#include "blockenc/arith/adders.hpp"
#include "blockenc/dense_embedding.hpp"
#include "blockenc/lcu.hpp"
#include "blockenc/tridiagonal.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/statevector.hpp"
#include "qsvt/solve.hpp"

namespace mpqls::blockenc {
namespace {

using linalg::Matrix;

double block_error(const BlockEncoding& be, const Matrix<double>& A) {
  const auto block = encoded_block(be);
  double worst = 0.0;
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < A.cols(); ++j) {
      worst = std::fmax(worst, std::abs(block(i, j) - std::complex<double>(A(i, j))));
    }
  }
  return worst;
}

void expect_unitary(const BlockEncoding& be) {
  const auto U = qsim::circuit_unitary(be.circuit);
  const auto UhU = linalg::gemm(linalg::transpose(U), U);
  EXPECT_LT(linalg::max_abs_diff(UhU, Matrix<qsim::c64>::identity(U.rows())), 1e-11);
}

TEST(DenseEmbedding, EncodesRandomMatrix) {
  Xoshiro256 rng(1);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto be = dense_embedding(A);
  EXPECT_EQ(be.n_anc, 1u);
  EXPECT_NEAR(be.alpha, 1.0, 1e-9);  // ||A||_2 = 1 by construction
  EXPECT_LT(block_error(be, A), 1e-10);
  expect_unitary(be);
}

TEST(DenseEmbedding, RespectsCustomAlpha) {
  Xoshiro256 rng(2);
  const auto A = linalg::random_with_cond(rng, 4, 5.0);
  const auto be = dense_embedding(A, 3.0);
  EXPECT_DOUBLE_EQ(be.alpha, 3.0);
  EXPECT_LT(block_error(be, A), 1e-10);
  expect_unitary(be);
}

TEST(DenseEmbedding, NonSymmetricMatrix) {
  Matrix<double> A{{0.1, 0.7, 0.0, 0.0},
                   {-0.3, 0.2, 0.1, 0.0},
                   {0.0, 0.4, -0.2, 0.3},
                   {0.2, 0.0, 0.0, 0.5}};
  const auto be = dense_embedding(A);
  EXPECT_LT(block_error(be, A), 1e-10);
  expect_unitary(be);
}

/// The one dense unitary a dense embedding's circuit applies.
const Matrix<qsim::c64>& embedded_unitary(const BlockEncoding& be) {
  return *be.circuit.gates().front().matrix;
}

TEST(DenseEmbedding, GivenSvdIsBitwiseTheComputedOne) {
  Xoshiro256 rng(3);
  const auto A = linalg::random_with_cond(rng, 16, 20.0);
  const auto own = dense_embedding(A);
  const auto given = dense_embedding(A, linalg::jacobi_svd(A));
  EXPECT_EQ(given.alpha, own.alpha);
  EXPECT_TRUE(embedded_unitary(given) == embedded_unitary(own));
}

TEST(DenseEmbedding, SolverEncodesTransposeFromItsOwnSvd) {
  // prepare_qsvt_solver encodes A^T from A's factors, swapped; the result
  // matches an encoding that decomposes A^T itself, and its unitary is
  // orthogonal. Gate-level contexts hand the factors over, matrix-function
  // contexts keep them.
  Xoshiro256 rng(4);
  const auto A = linalg::random_with_cond(rng, 64, 20.0);
  const auto standalone = dense_embedding(linalg::transpose(A));
  for (const auto backend : {qsvt::Backend::kGateLevel, qsvt::Backend::kMatrixFunction}) {
    qsvt::QsvtOptions options;
    options.backend = backend;
    options.eps_l = 5e-2;
    const auto ctx = qsvt::prepare_qsvt_solver(A, options);
    const auto& U = embedded_unitary(ctx.be);
    EXPECT_NEAR(ctx.be.alpha, standalone.alpha, 1e-12);
    EXPECT_LT(linalg::max_abs_diff(U, embedded_unitary(standalone)), 1e-12);
    EXPECT_LT(linalg::max_abs_diff(linalg::gemm(linalg::transpose(U), U),
                                   Matrix<qsim::c64>::identity(U.rows())),
              1e-12);
    if (backend == qsvt::Backend::kMatrixFunction) {
      Matrix<double> US = ctx.svd.U;
      for (std::size_t i = 0; i < 64; ++i) {
        for (std::size_t j = 0; j < 64; ++j) US(i, j) *= ctx.svd.sigma[j];
      }
      EXPECT_LT(linalg::max_abs_diff(linalg::gemm(US, linalg::transpose(ctx.svd.V)), A), 1e-12);
    } else {
      EXPECT_EQ(ctx.svd.U.rows(), 0u);
      EXPECT_EQ(ctx.svd.V.rows(), 0u);
    }
  }
}

TEST(PauliDecompose, ExactReconstruction) {
  Xoshiro256 rng(3);
  const auto A = linalg::random_gaussian(rng, 8, 8);
  const auto terms = tree_pauli_decompose(A);
  const auto R = pauli_reconstruct(terms, 3);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) {
      EXPECT_NEAR(R(i, j).real(), A(i, j), 1e-12);
      EXPECT_NEAR(R(i, j).imag(), 0.0, 1e-12);
    }
  }
}

TEST(PauliDecompose, KnownSingleTerms) {
  // X on qubit 0 of 2 qubits: matrix I (x) X (label "IX").
  const auto IX = pauli_matrix(PauliString{{'X', 'I'}});
  const auto terms = tree_pauli_decompose(IX);
  ASSERT_EQ(terms.size(), 1u);
  EXPECT_EQ(terms[0].string.label(), "IX");
  EXPECT_NEAR(std::abs(terms[0].coefficient - 1.0), 0.0, 1e-14);
}

TEST(PauliDecompose, PruningDropsSparseStructure) {
  // Diagonal matrix: only I/Z strings survive. For the linear ramp
  // diag(1..8) the Walsh-Hadamard spectrum has exactly the constant and
  // the three single-bit masks, i.e. 4 terms — the X/Y subtrees (and the
  // zero Z-coefficients) are pruned away exactly.
  Matrix<double> A(8, 8);
  for (std::size_t i = 0; i < 8; ++i) A(i, i) = static_cast<double>(i + 1);
  const auto terms = tree_pauli_decompose(A);
  EXPECT_EQ(terms.size(), 4u);
  for (const auto& t : terms) {
    for (char c : t.string.ops) EXPECT_TRUE(c == 'I' || c == 'Z');
    EXPECT_LE(t.string.weight(), 1u);
  }
}

TEST(PauliDecompose, ToleranceReducesTermCount) {
  Xoshiro256 rng(4);
  auto A = linalg::random_gaussian(rng, 8, 8);
  // One dominant entry, everything else small.
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) A(i, j) *= 1e-4;
  }
  A(0, 0) = 1.0;
  const auto exact = tree_pauli_decompose(A);
  const auto pruned = tree_pauli_decompose(A, 1e-2);
  EXPECT_LT(pruned.size(), exact.size());
}

TEST(LcuPauli, EncodesSmallMatrix) {
  Xoshiro256 rng(5);
  Matrix<double> A = linalg::random_gaussian(rng, 4, 4);
  // Normalize to spectral norm <= 1 for a sane alpha.
  const double nrm = linalg::norm2(A);
  for (std::size_t i = 0; i < 4; ++i) {
    for (std::size_t j = 0; j < 4; ++j) A(i, j) /= nrm;
  }
  const auto be = lcu_block_encoding(A);
  EXPECT_EQ(be.method, "lcu-pauli");
  EXPECT_LT(block_error(be, A), 1e-10);
  expect_unitary(be);
  // alpha = sum |c_j| >= ||A||_2 = 1.
  EXPECT_GE(be.alpha, 1.0 - 1e-9);
}

TEST(LcuPauli, SingleTermIdentity) {
  std::vector<PauliTerm> terms;
  terms.push_back({PauliString{{'I', 'I'}}, 0.5});
  const auto be = lcu_block_encoding(terms, 2);
  Matrix<double> expected = Matrix<double>::identity(4);
  for (std::size_t i = 0; i < 4; ++i) expected(i, i) = 0.5;
  EXPECT_LT(block_error(be, expected), 1e-12);
}

TEST(LcuPauli, NegativeAndImaginaryCoefficients) {
  // A = 0.4 X - 0.3 Z on one qubit.
  std::vector<PauliTerm> terms;
  terms.push_back({PauliString{{'X'}}, 0.4});
  terms.push_back({PauliString{{'Z'}}, -0.3});
  const auto be = lcu_block_encoding(terms, 1);
  Matrix<double> expected{{-0.3, 0.4}, {0.4, 0.3}};
  EXPECT_LT(block_error(be, expected), 1e-12);

  // Purely imaginary coefficient on Y gives a real matrix contribution.
  std::vector<PauliTerm> terms2;
  terms2.push_back({PauliString{{'Y'}}, std::complex<double>(0, 0.5)});
  const auto be2 = lcu_block_encoding(terms2, 1);
  Matrix<double> expected2{{0, 0.5}, {-0.5, 0}};
  EXPECT_LT(block_error(be2, expected2), 1e-12);
}

TEST(Adders, IncrementPermutesBasisStates) {
  for (std::uint32_t n : {1u, 2u, 3u, 5u}) {
    qsim::Circuit c(n);
    std::vector<std::uint32_t> q(n);
    for (std::uint32_t i = 0; i < n; ++i) q[i] = i;
    append_increment(c, q);
    const auto U = qsim::circuit_unitary(c);
    const std::size_t N = std::size_t{1} << n;
    for (std::size_t j = 0; j < N; ++j) {
      EXPECT_NEAR(std::abs(U((j + 1) % N, j)), 1.0, 1e-14) << "n=" << n << " j=" << j;
    }
  }
}

TEST(Adders, CarryIncrementMatchesCascade) {
  for (std::uint32_t n : {3u, 4u, 5u}) {
    const std::uint32_t n_carry = n - 2;
    qsim::Circuit c(n + n_carry);
    std::vector<std::uint32_t> q(n), a(n_carry);
    for (std::uint32_t i = 0; i < n; ++i) q[i] = i;
    for (std::uint32_t i = 0; i < n_carry; ++i) a[i] = n + i;
    append_increment_carry(c, q, a);
    const auto U = qsim::circuit_unitary(c);
    const std::size_t N = std::size_t{1} << n;
    // On the ancilla-zero subspace: |j, 0> -> |j+1 mod N, 0>.
    for (std::size_t j = 0; j < N; ++j) {
      EXPECT_NEAR(std::abs(U((j + 1) % N, j)), 1.0, 1e-13) << "n=" << n << " j=" << j;
    }
  }
}

TEST(Adders, DecrementInvertsIncrement) {
  const std::uint32_t n = 4, n_carry = 2;
  qsim::Circuit c(n + n_carry);
  std::vector<std::uint32_t> q(n), a(n_carry);
  for (std::uint32_t i = 0; i < n; ++i) q[i] = i;
  for (std::uint32_t i = 0; i < n_carry; ++i) a[i] = n + i;
  append_increment_carry(c, q, a);
  append_decrement_carry(c, q, a);
  const auto U = qsim::circuit_unitary(c);
  EXPECT_LT(linalg::max_abs_diff(U, Matrix<qsim::c64>::identity(64)), 1e-13);
}

TEST(Tridiagonal, EncodesDirichletLaplacian) {
  for (std::uint32_t n : {2u, 3u, 4u}) {
    const auto be = tridiagonal_block_encoding(n);
    EXPECT_DOUBLE_EQ(be.alpha, 5.0);
    const auto T = linalg::dirichlet_laplacian(std::size_t{1} << n);
    EXPECT_LT(block_error(be, T), 1e-11) << "n=" << n;
  }
}

TEST(Tridiagonal, CircuitIsUnitary) {
  const auto be = tridiagonal_block_encoding(2);
  expect_unitary(be);
}

TEST(Tridiagonal, GateCountScalesLinearly) {
  // The ripple adders dominate: gate count should grow ~linearly in n,
  // not with the 4^n of generic dense encodings.
  const auto c3 = tridiagonal_block_encoding(3).circuit.counts().total;
  const auto c6 = tridiagonal_block_encoding(6).circuit.counts().total;
  EXPECT_LT(c6, 3 * c3);
}

}  // namespace
}  // namespace mpqls::blockenc
