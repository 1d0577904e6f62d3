#include "qsp/symmetric_qsp.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <tuple>
#include <utility>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "poly/chebyshev.hpp"
#include "poly/inverse_poly.hpp"

namespace mpqls::qsp {
namespace {

TEST(QspResponse, TrivialPhasesEncodeChebyshev) {
  // Phi = (pi/4, 0, ..., 0, pi/4) encodes Im<0|U|0> = T_d(x).
  for (int d : {1, 2, 5, 8}) {
    std::vector<double> phases(d + 1, 0.0);
    phases.front() = M_PI / 4;
    phases.back() += M_PI / 4;
    for (double x : {-0.9, -0.2, 0.4, 1.0}) {
      EXPECT_NEAR(qsp_response(phases, x), poly::chebyshev_t(d, x), 1e-13)
          << "d=" << d << " x=" << x;
    }
  }
}

TEST(QspResponse, UnitaryIsUnitary) {
  Xoshiro256 rng(7);
  std::vector<double> phases(6);
  for (auto& p : phases) p = rng.uniform(-1.0, 1.0);
  for (double x : {-0.5, 0.2, 0.8}) {
    const auto u = qsp_unitary(phases, x);
    const double row0 = std::norm(u.u00) + std::norm(u.u01);
    const double row1 = std::norm(u.u10) + std::norm(u.u11);
    EXPECT_NEAR(row0, 1.0, 1e-13);
    EXPECT_NEAR(row1, 1.0, 1e-13);
  }
}

TEST(QspResponse, UnitaryMatchesExplicitMatrixProduct) {
  // Reference: the defining product of generic 2x2 complex matrices.
  using c64 = std::complex<double>;
  using M = std::array<c64, 4>;  // row-major
  const auto mul = [](const M& a, const M& b) {
    return M{a[0] * b[0] + a[1] * b[2], a[0] * b[1] + a[1] * b[3],
             a[2] * b[0] + a[3] * b[2], a[2] * b[1] + a[3] * b[3]};
  };
  const auto z = [](double phi) {
    return M{std::exp(c64(0, phi)), 0.0, 0.0, std::exp(c64(0, -phi))};
  };
  Xoshiro256 rng(11);
  for (int d : {0, 1, 6, 31}) {
    std::vector<double> phases(d + 1);
    for (auto& p : phases) p = rng.uniform(-1.5, 1.5);
    for (double x : {-1.0, -0.6, 0.0, 0.35, 0.999, 1.0}) {
      const double s = std::sqrt(1.0 - x * x);
      const M w{c64(x, 0), c64(0, s), c64(0, s), c64(x, 0)};
      M u = z(phases[0]);
      for (int j = 1; j <= d; ++j) u = mul(u, mul(w, z(phases[j])));
      const auto got = qsp_unitary(phases, x);
      EXPECT_LT(std::abs(got.u00 - u[0]), 1e-12) << "d=" << d << " x=" << x;
      EXPECT_LT(std::abs(got.u01 - u[1]), 1e-12) << "d=" << d << " x=" << x;
      EXPECT_LT(std::abs(got.u10 - u[2]), 1e-12) << "d=" << d << " x=" << x;
      EXPECT_LT(std::abs(got.u11 - u[3]), 1e-12) << "d=" << d << " x=" << x;
    }
  }
}

TEST(QspResponse, GradientMatchesFiniteDifferences) {
  // Central differences of the response in each phase; phases need not be
  // symmetric for the derivative.
  Xoshiro256 rng(12);
  const double h = 1e-6;
  for (int d : {0, 1, 4, 9, 40}) {
    std::vector<double> phases(d + 1);
    for (auto& p : phases) p = rng.uniform(-1.0, 1.0);
    for (double x : {-0.8, 0.05, 0.5, 0.97}) {
      const auto grad = qsp_response_gradient(phases, x);
      ASSERT_EQ(grad.size(), phases.size());
      for (int j = 0; j <= d; ++j) {
        auto up = phases;
        auto down = phases;
        up[j] += h;
        down[j] -= h;
        const double fd = (qsp_response(up, x) - qsp_response(down, x)) / (2.0 * h);
        EXPECT_NEAR(grad[j], fd, 1e-8) << "d=" << d << " x=" << x << " j=" << j;
      }
    }
  }
}

TEST(QspResponse, ChebCoeffsMatchSampledResponse) {
  Xoshiro256 rng(8);
  const int d = 7;
  std::vector<double> phases(d + 1);
  for (std::size_t j = 0; j <= static_cast<std::size_t>(d) / 2; ++j) {
    phases[j] = phases[d - j] = rng.uniform(-0.3, 0.3);
  }
  const auto coeffs = response_cheb_coeffs(phases, d);
  poly::ChebSeries series(coeffs);
  for (double x : {-0.7, 0.1, 0.6}) {
    EXPECT_NEAR(series.evaluate(x), qsp_response(phases, x), 1e-12) << x;
  }
}

TEST(QspResponse, SymmetricPhasesGiveDefiniteParity) {
  Xoshiro256 rng(9);
  for (int d : {4, 7}) {
    std::vector<double> phases(d + 1);
    for (int j = 0; j <= d / 2; ++j) phases[j] = phases[d - j] = rng.uniform(-0.4, 0.4);
    const auto coeffs = response_cheb_coeffs(phases, d);
    for (int k = 0; k <= d; ++k) {
      if ((k % 2) != (d % 2)) {
        EXPECT_NEAR(coeffs[k], 0.0, 1e-12) << "d=" << d << " k=" << k;
      }
    }
  }
}

TEST(SymmetricQsp, RecoversSimpleLinearTarget) {
  // f(x) = 0.5 x = 0.5 T_1.
  poly::ChebSeries target({0.0, 0.5});
  const auto res = solve_symmetric_qsp(target);
  EXPECT_TRUE(res.converged) << res.residual;
  for (double x : {-1.0, -0.4, 0.0, 0.3, 0.9}) {
    EXPECT_NEAR(qsp_response(res.phases, x), 0.5 * x, 1e-10) << x;
  }
}

TEST(SymmetricQsp, RecoversChebyshevMixture) {
  poly::ChebSeries target({0.0, 0.4, 0.0, -0.25, 0.0, 0.1});  // odd, ||f|| < 1
  const auto res = solve_symmetric_qsp(target);
  EXPECT_TRUE(res.converged) << res.residual;
  for (double x = -1.0; x <= 1.0; x += 0.125) {
    EXPECT_NEAR(qsp_response(res.phases, x), target.evaluate(x), 1e-9) << x;
  }
}

TEST(SymmetricQsp, RecoversEvenTarget) {
  poly::ChebSeries target({0.1, 0.0, 0.35, 0.0, -0.2});  // even
  const auto res = solve_symmetric_qsp(target);
  EXPECT_TRUE(res.converged) << res.residual;
  for (double x = -1.0; x <= 1.0; x += 0.2) {
    EXPECT_NEAR(qsp_response(res.phases, x), target.evaluate(x), 1e-9) << x;
  }
}

TEST(SymmetricQsp, PhasesAreSymmetric) {
  poly::ChebSeries target({0.0, 0.3, 0.0, 0.2});
  const auto res = solve_symmetric_qsp(target);
  for (std::size_t j = 0; j < res.phases.size(); ++j) {
    EXPECT_NEAR(res.phases[j], res.phases[res.phases.size() - 1 - j], 1e-12);
  }
}

TEST(SymmetricQsp, RoundTripFromRandomPhases) {
  // Generate a response from known symmetric phases, then re-solve and
  // compare responses (phases themselves need not be unique).
  Xoshiro256 rng(10);
  const int d = 9;
  std::vector<double> phases(d + 1);
  for (int j = 0; j <= d / 2; ++j) phases[j] = phases[d - j] = rng.uniform(-0.2, 0.2);
  poly::ChebSeries target(response_cheb_coeffs(phases, d));
  target = target.parity_projected(poly::Parity::kOdd).truncated(1e-14);
  const auto res = solve_symmetric_qsp(target);
  EXPECT_TRUE(res.converged) << res.residual;
  for (double x = -0.95; x <= 1.0; x += 0.15) {
    EXPECT_NEAR(qsp_response(res.phases, x), qsp_response(phases, x), 1e-9) << x;
  }
}

TEST(SymmetricQsp, SolvesInversePolynomialKappa10) {
  // The actual workload: the windowed/scaled inverse target for kappa=10.
  const double kappa = 10.0;
  auto inv = poly::inverse_poly_interpolated(kappa, 1e-4);
  // Rescale so max |P| <= 0.9 (solver requirement; the linear-solver
  // pipeline tracks this scale).
  const double scale = 0.9 / inv.max_abs;
  const auto target = inv.series.scaled(scale);
  const auto res = solve_symmetric_qsp(target);
  EXPECT_TRUE(res.converged) << "residual=" << res.residual << " method=" << res.method;
  for (double x : {0.1, 0.3, 0.55, 0.8, 1.0}) {
    EXPECT_NEAR(qsp_response(res.phases, x), target.evaluate(x), 1e-8) << x;
  }
}

/// The scaled inverse target the linear solver builds for (kappa, eps_l).
poly::ChebSeries inverse_target(double kappa, double eps_l) {
  const auto inv = poly::inverse_poly_interpolated(kappa, eps_l);
  const double scale = (inv.max_abs > 0.9) ? 0.9 / inv.max_abs : 1.0;
  return inv.series.scaled(scale).parity_projected(poly::Parity::kOdd);
}

TEST(SymmetricQsp, NewtonAloneSolvesInverseTargets) {
  // With no FPI stage, Newton starts from psi = c / 2 and must converge on
  // its own: this needs every column of the Jacobian, not just phi_d's.
  SymQspOptions opts;
  opts.max_fpi_iterations = 0;
  opts.enable_lbfgs = false;
  // kappa 10 at eps 1e-4, and kappa 21 at eps 5e-2: the degree-281 target
  // an n = 64, kappa = 20 dense encoding asks for.
  for (const auto& [kappa, eps_l] : {std::pair{10.0, 1e-4}, std::pair{21.0, 5e-2}}) {
    const auto target = inverse_target(kappa, eps_l);
    const auto res = solve_symmetric_qsp(target, opts);
    EXPECT_TRUE(res.converged) << "kappa=" << kappa << " residual=" << res.residual;
    EXPECT_EQ(res.method, "newton") << "kappa=" << kappa;
    EXPECT_EQ(res.fpi_iterations, 0);
    EXPECT_GT(res.newton_iterations, 0);
    EXPECT_LT(res.residual, opts.tolerance) << "kappa=" << kappa;
  }
  EXPECT_GE(inverse_target(21.0, 5e-2).degree(), 251);
}

TEST(SymmetricQsp, DefaultSolveOfInverseTargetReachesRoundoff) {
  for (double kappa : {10.0, 21.0}) {
    const auto target = inverse_target(kappa, 5e-2);
    const auto res = solve_symmetric_qsp(target);
    EXPECT_TRUE(res.converged) << "kappa=" << kappa;
    EXPECT_LE(res.residual, 1e-13) << "kappa=" << kappa << " method=" << res.method;
    double worst = 0.0;
    for (int i = 0; i <= 200; ++i) {
      const double x = -1.0 + 2.0 * i / 200.0;
      worst = std::fmax(worst, std::fabs(qsp_response(res.phases, x) - target.evaluate(x)));
    }
    EXPECT_LE(worst, 1e-9) << "kappa=" << kappa;
  }
}

TEST(SymmetricQsp, RejectsMixedParity) {
  poly::ChebSeries bad({0.1, 0.3});
  EXPECT_THROW(solve_symmetric_qsp(bad), contract_violation);
}

TEST(SymmetricQsp, RejectsUnboundedTarget) {
  poly::ChebSeries bad({0.0, 1.2});
  EXPECT_THROW(solve_symmetric_qsp(bad), contract_violation);
}

class SymQspDegreeSweep : public ::testing::TestWithParam<int> {};

TEST_P(SymQspDegreeSweep, ConvergesAcrossDegrees) {
  const int d = GetParam();
  // Target: scaled Chebyshev mixture of the right parity.
  std::vector<double> coeffs(d + 1, 0.0);
  coeffs[d] = 0.4;
  if (d >= 3) coeffs[d - 2] = 0.3;
  if (d >= 5) coeffs[d - 4] = -0.15;
  poly::ChebSeries target(coeffs);
  const auto res = solve_symmetric_qsp(target);
  EXPECT_TRUE(res.converged) << "d=" << d << " residual=" << res.residual;
  for (double x = -1.0; x <= 1.0; x += 0.25) {
    EXPECT_NEAR(qsp_response(res.phases, x), target.evaluate(x), 1e-8) << x;
  }
}

INSTANTIATE_TEST_SUITE_P(Degrees, SymQspDegreeSweep, ::testing::Values(1, 2, 3, 5, 8, 13, 21, 40));

}  // namespace
}  // namespace mpqls::qsp
