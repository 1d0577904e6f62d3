#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/jacobi_eig.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/random_matrix.hpp"

namespace mpqls::linalg {
namespace {

TEST(JacobiEig, DiagonalMatrixIsFixedPoint) {
  Matrix<double> A{{3, 0}, {0, 1}};
  const auto e = jacobi_eigensymmetric(A);
  EXPECT_NEAR(e.values[0], 1.0, 1e-14);
  EXPECT_NEAR(e.values[1], 3.0, 1e-14);
}

TEST(JacobiEig, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 1 and 3.
  Matrix<double> A{{2, 1}, {1, 2}};
  const auto e = jacobi_eigensymmetric(A);
  EXPECT_NEAR(e.values[0], 1.0, 1e-13);
  EXPECT_NEAR(e.values[1], 3.0, 1e-13);
}

TEST(JacobiEig, ReconstructsMatrix) {
  Xoshiro256 rng(8);
  const auto G = random_gaussian(rng, 8, 8);
  Matrix<double> A(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) A(i, j) = 0.5 * (G(i, j) + G(j, i));
  }
  const auto e = jacobi_eigensymmetric(A);
  // A == V diag(w) V^T
  Matrix<double> VD(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) VD(i, j) = e.vectors(i, j) * e.values[j];
  }
  EXPECT_LT(max_abs_diff(gemm(VD, transpose(e.vectors)), A), 1e-11);
}

TEST(JacobiEig, PoissonSpectrumMatchesAnalytic) {
  const std::size_t N = 16;
  const auto A = dirichlet_laplacian(N);
  const auto e = jacobi_eigensymmetric(A);
  for (std::size_t k = 0; k < N; ++k) {
    const double expected =
        2.0 - 2.0 * std::cos((k + 1) * M_PI / static_cast<double>(N + 1));
    EXPECT_NEAR(e.values[k], expected, 1e-12) << "k=" << k;
  }
}

/// Max deviation of U^T U, V^T V from the identity and of U diag(sigma)
/// V^T from A.
struct SvdErrors {
  double u_orth, v_orth, reconstruction;
};

SvdErrors svd_errors(const Matrix<double>& A, const Svd& s) {
  const std::size_t n = A.cols();
  Matrix<double> US(A.rows(), n);
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) US(i, j) = s.U(i, j) * s.sigma[j];
  }
  return {max_abs_diff(gemm(transpose(s.U), s.U), Matrix<double>::identity(n)),
          max_abs_diff(gemm(transpose(s.V), s.V), Matrix<double>::identity(n)),
          max_abs_diff(gemm(US, transpose(s.V)), A)};
}

TEST(JacobiSvd, ReconstructsMatrix) {
  Xoshiro256 rng(10);
  const auto A = random_gaussian(rng, 9, 6);
  const auto s = jacobi_svd(A);
  Matrix<double> US(9, 6);
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t j = 0; j < 6; ++j) US(i, j) = s.U(i, j) * s.sigma[j];
  }
  EXPECT_LT(max_abs_diff(gemm(US, transpose(s.V)), A), 1e-12);
}

TEST(JacobiSvd, OrthonormalFactors) {
  // Square and tall inputs: U has orthonormal columns, V is orthogonal.
  Xoshiro256 rng(11);
  for (const auto [m, n] : {std::pair<std::size_t, std::size_t>{8, 8}, {40, 17}}) {
    const auto A = random_gaussian(rng, m, n);
    const auto s = jacobi_svd(A);
    ASSERT_EQ(s.U.rows(), m);
    ASSERT_EQ(s.U.cols(), n);
    ASSERT_EQ(s.V.rows(), n);
    const auto e = svd_errors(A, s);
    EXPECT_LT(e.u_orth, 1e-12) << m << "x" << n;
    EXPECT_LT(e.v_orth, 1e-12) << m << "x" << n;
    EXPECT_LT(e.reconstruction, 1e-12) << m << "x" << n;
  }
}

TEST(JacobiSvd, SingularValuesSortedNonnegative) {
  Xoshiro256 rng(12);
  const auto A = random_gaussian(rng, 10, 10);
  const auto s = jacobi_svd(A);
  for (std::size_t i = 0; i + 1 < s.sigma.size(); ++i) {
    EXPECT_GE(s.sigma[i], s.sigma[i + 1]);
  }
  EXPECT_GE(s.sigma.back(), 0.0);
}

TEST(JacobiSvd, RecoversPrescribedConditionNumber) {
  Xoshiro256 rng(13);
  for (double kappa : {2.0, 10.0, 100.0, 1e4, 1e8}) {
    const auto A = random_with_cond(rng, 16, kappa);
    EXPECT_NEAR(cond2(A) / kappa, 1.0, 1e-8) << "kappa=" << kappa;
    EXPECT_NEAR(norm2(A), 1.0, 1e-10);
    const auto e = svd_errors(A, jacobi_svd(A));
    EXPECT_LT(e.u_orth, 1e-12) << "kappa=" << kappa;
    EXPECT_LT(e.v_orth, 1e-12) << "kappa=" << kappa;
    EXPECT_LT(e.reconstruction, 1e-12) << "kappa=" << kappa;
  }
}

TEST(JacobiSvd, ZeroColumnGivesZeroSigmaAndFiniteFactors) {
  Xoshiro256 rng(16);
  auto A = random_gaussian(rng, 8, 6);
  for (std::size_t i = 0; i < 8; ++i) A(i, 2) = 0.0;
  const auto s = jacobi_svd(A);
  EXPECT_EQ(s.sigma.back(), 0.0);
  EXPECT_GT(s.sigma[4], 0.0);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 6; ++j) EXPECT_TRUE(std::isfinite(s.U(i, j)));
  }
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = 0; j < 6; ++j) EXPECT_TRUE(std::isfinite(s.V(i, j)));
  }
  const auto e = svd_errors(A, s);
  EXPECT_LT(e.v_orth, 1e-12);
  EXPECT_LT(e.reconstruction, 1e-12);
}

TEST(JacobiSvd, RepeatedCallsAreBitwiseIdentical) {
  Xoshiro256 rng(17);
  const auto A = random_with_cond(rng, 64, 20.0);
  const auto a = jacobi_svd(A);
  const auto b = jacobi_svd(A);
  EXPECT_EQ(a.sweeps, b.sweeps);
  EXPECT_TRUE(a.sigma == b.sigma);
  EXPECT_TRUE(a.U == b.U);
  EXPECT_TRUE(a.V == b.V);
}

TEST(JacobiSvd, HighRelativeAccuracyOnTinySigma) {
  // diag(1, 1e-12): one-sided Jacobi must resolve sigma_min accurately.
  Matrix<double> A{{1.0, 0.0}, {0.0, 1e-12}};
  const auto s = jacobi_svd(A);
  EXPECT_NEAR(s.sigma[1] / 1e-12, 1.0, 1e-10);
}

}  // namespace
}  // namespace mpqls::linalg
