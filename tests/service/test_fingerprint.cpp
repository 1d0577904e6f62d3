// The cache key must separate everything preparation depends on: matrix
// content and every QsvtOptions field (a fixed precision by the tier it
// runs). A collision between requests that
// differ in any of those would silently serve a context prepared for the
// wrong accuracy/backend.
#include "service/fingerprint.hpp"

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"

namespace mpqls::service {
namespace {

TEST(Fingerprint, DeterministicForEqualInputs) {
  Xoshiro256 rng(1);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  qsvt::QsvtOptions opts;
  EXPECT_EQ(fingerprint(A, opts), fingerprint(A, opts));
}

TEST(Fingerprint, MatrixContentChangesHash) {
  Xoshiro256 rng(2);
  auto A = linalg::random_with_cond(rng, 8, 5.0);
  const qsvt::QsvtOptions opts;
  const auto base = fingerprint(A, opts);
  A(3, 4) += 1e-12;
  const auto perturbed = fingerprint(A, opts);
  EXPECT_NE(base.matrix_hash, perturbed.matrix_hash);
  EXPECT_EQ(base.options_hash, perturbed.options_hash);
}

TEST(Fingerprint, MatrixShapeChangesHash) {
  const linalg::Matrix<double> row_vec(1, 4, 1.0);
  const linalg::Matrix<double> col_vec(4, 1, 1.0);
  EXPECT_NE(hash_matrix(row_vec), hash_matrix(col_vec));
}

TEST(Fingerprint, EveryOptionFieldSeparates) {
  const qsvt::QsvtOptions base;
  auto differs = [&](qsvt::QsvtOptions changed) {
    return hash_options(changed) != hash_options(base);
  };

  qsvt::QsvtOptions o = base;
  o.backend = qsvt::Backend::kMatrixFunction;
  EXPECT_TRUE(differs(o));

  o = base;
  o.precision = qsvt::QpuPrecision::kSingle;
  EXPECT_TRUE(differs(o));

  o = base;
  o.poly_method = qsvt::PolyMethod::kAnalytic;
  EXPECT_TRUE(differs(o));

  o = base;
  o.encoding = qsvt::EncodingKind::kLcuPauli;
  EXPECT_TRUE(differs(o));

  o = base;
  o.eps_l = base.eps_l * 0.5;
  EXPECT_TRUE(differs(o));

  o = base;
  o.kappa = 42.0;
  EXPECT_TRUE(differs(o));

  o = base;
  o.kappa_margin = 1.25;
  EXPECT_TRUE(differs(o));

  o = base;
  o.shots = 1000;
  EXPECT_TRUE(differs(o));

  o = base;
  o.seed = base.seed + 1;
  EXPECT_TRUE(differs(o));

  o = base;
  o.noise.depolarizing_per_gate = 1e-4;
  EXPECT_TRUE(differs(o));

  o = base;
  o.noise.damping_per_gate = 1e-4;
  EXPECT_TRUE(differs(o));

  o = base;
  o.qsp_options.tolerance = 1e-9;
  EXPECT_TRUE(differs(o));
}

TEST(Fingerprint, FixedPrecisionsKeyOnTheTierTheyRun) {
  // The retired half tier runs single, so both prepare the same context;
  // adaptive runs a schedule, so it keys apart from double, the tier it
  // resolves to.
  qsvt::QsvtOptions single;
  single.precision = qsvt::QpuPrecision::kSingle;
  auto half = single;
  half.precision = qsvt::QpuPrecision::kHalf;
  auto dbl = single;
  dbl.precision = qsvt::QpuPrecision::kDouble;
  auto adaptive = single;
  adaptive.precision = qsvt::QpuPrecision::kAdaptive;
  EXPECT_EQ(hash_options(half), hash_options(single));
  EXPECT_NE(hash_options(single), hash_options(dbl));
  EXPECT_NE(hash_options(adaptive), hash_options(dbl));
  EXPECT_NE(hash_options(adaptive), hash_options(single));
}

TEST(Fingerprint, NegativeZeroMatchesPositiveZero) {
  linalg::Matrix<double> A(2, 2);
  linalg::Matrix<double> B(2, 2);
  A(0, 0) = 0.0;
  B(0, 0) = -0.0;
  EXPECT_EQ(hash_matrix(A), hash_matrix(B));
}

TEST(Fingerprint, ToStringIsStable) {
  const Fingerprint fp{0x0123456789ABCDEFull, 0xFEDCBA9876543210ull};
  EXPECT_EQ(to_string(fp), "mtx:0123456789abcdef/opt:fedcba9876543210");
}

}  // namespace
}  // namespace mpqls::service
