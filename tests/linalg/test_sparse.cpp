#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/sparse.hpp"

namespace mpqls::linalg {
namespace {

TEST(Csr, RoundTripFromDense) {
  Xoshiro256 rng(16);
  auto A = random_gaussian(rng, 6, 6);
  A(2, 3) = 0.0;
  A(5, 0) = 0.0;
  const auto csr = CsrMatrix::from_dense(A);
  EXPECT_LT(max_abs_diff(csr.to_dense(), A), 1e-15);
  EXPECT_EQ(csr.nonzeros(), 34u);
}

TEST(Csr, MatvecMatchesDense) {
  Xoshiro256 rng(17);
  const auto A = random_gaussian(rng, 12, 12);
  const auto csr = CsrMatrix::from_dense(A);
  const auto x = random_unit_vector(rng, 12);
  const auto y_dense = matvec(A, x);
  const auto y_csr = csr.multiply(x);
  for (std::size_t i = 0; i < 12; ++i) EXPECT_NEAR(y_csr[i], y_dense[i], 1e-13);
}

TEST(Csr, Laplacian1dMatchesDenseBuilder) {
  const auto sparse = CsrMatrix::dirichlet_laplacian(16);
  const auto dense = dirichlet_laplacian(16);
  EXPECT_LT(max_abs_diff(sparse.to_dense(), dense), 1e-15);
  EXPECT_EQ(sparse.nonzeros(), 3u * 16u - 2u);
}

TEST(Csr, Laplacian2dStructure) {
  const auto A = CsrMatrix::dirichlet_laplacian_2d(3, 3).to_dense();
  EXPECT_DOUBLE_EQ(A(4, 4), 4.0);   // center point
  EXPECT_DOUBLE_EQ(A(4, 1), -1.0);  // north
  EXPECT_DOUBLE_EQ(A(4, 3), -1.0);  // west
  EXPECT_DOUBLE_EQ(A(4, 5), -1.0);  // east
  EXPECT_DOUBLE_EQ(A(4, 7), -1.0);  // south
  EXPECT_DOUBLE_EQ(A(0, 8), 0.0);   // no wraparound
}

TEST(Cg, SolvesPoisson1d) {
  const std::size_t n = 64;
  const auto A = CsrMatrix::dirichlet_laplacian(n);
  Vector<double> b(n, 1.0);
  const auto res = cg_solve(A, b);
  EXPECT_TRUE(res.converged);
  const auto r = subtract(b, A.multiply(res.x));
  EXPECT_LT(nrm2(r), 1e-9);
  // CG on the 1-D Laplacian converges in at most n steps (exactly, in
  // exact arithmetic).
  EXPECT_LE(res.iterations, static_cast<int>(n));
}

TEST(Cg, SolvesPoisson2d) {
  const auto A = CsrMatrix::dirichlet_laplacian_2d(12, 12);
  Vector<double> b(144, 1.0);
  const auto res = cg_solve(A, b);
  EXPECT_TRUE(res.converged);
}

}  // namespace
}  // namespace mpqls::linalg
