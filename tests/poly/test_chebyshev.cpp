#include "poly/chebyshev.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "common/contracts.hpp"
#include "common/rng.hpp"

namespace mpqls::poly {
namespace {

TEST(Chebyshev, TkMatchesTrigDefinition) {
  for (int k : {0, 1, 2, 5, 17}) {
    for (double x : {-1.0, -0.7, 0.0, 0.3, 1.0}) {
      EXPECT_NEAR(chebyshev_t(k, x), std::cos(k * std::acos(x)), 1e-12) << k << " " << x;
    }
  }
}

TEST(Chebyshev, TkOutsideUnitInterval) {
  // T_2(x) = 2x^2 - 1 everywhere.
  EXPECT_NEAR(chebyshev_t(2, 1.5), 2 * 1.5 * 1.5 - 1, 1e-12);
  EXPECT_NEAR(chebyshev_t(3, -1.2), 4 * std::pow(-1.2, 3) - 3 * -1.2, 1e-12);
}

TEST(Chebyshev, ClenshawMatchesDirectSum) {
  ChebSeries p({0.5, -0.25, 0.125, 0.0625, -1.5});
  for (double x : {-0.9, -0.3, 0.0, 0.4, 0.99}) {
    double direct = 0.0;
    for (int k = 0; k <= p.degree(); ++k) direct += p.coeffs()[k] * chebyshev_t(k, x);
    EXPECT_NEAR(p.evaluate(x), direct, 1e-14) << x;
  }
}

TEST(Chebyshev, BatchedEvaluateMatchesScalar) {
  // 37 points: four full Clenshaw blocks and a ragged tail.
  Xoshiro256 rng(3);
  std::vector<double> xs(37);
  for (auto& x : xs) x = rng.uniform(-1.0, 1.0);
  xs.front() = -1.0;
  xs.back() = 1.0;
  for (int d = 1; d <= 500; ++d) {
    std::vector<double> coeffs(d + 1);
    for (auto& c : coeffs) c = rng.uniform(-1.0, 1.0);
    const ChebSeries p(std::move(coeffs));
    const auto batched = p.evaluate(xs);
    ASSERT_EQ(batched.size(), xs.size());
    for (std::size_t i = 0; i < xs.size(); ++i) {
      const double scalar = p.evaluate(xs[i]);
      EXPECT_LE(std::fabs(batched[i] - scalar), 1e-15 * std::fabs(scalar))
          << "d=" << d << " x=" << xs[i];
    }
  }
  EXPECT_TRUE(ChebSeries().evaluate(xs) == std::vector<double>(xs.size(), 0.0));
}

TEST(Chebyshev, CosineCycleIndexesChebyshevNodes) {
  const int n = 7;
  const auto cyc = cosine_cycle(4 * n);
  for (int j = 0; j < n; ++j) {
    const double x = std::cos(M_PI * (j + 0.5) / n);
    EXPECT_NEAR(cyc[2 * j + 1], x, 1e-15) << j;
    for (int k = 0; k <= 3 * n; ++k) {
      EXPECT_NEAR(cyc[k * (2 * j + 1) % (4 * n)], chebyshev_t(k, x), 1e-13) << k << " " << j;
    }
  }
}

TEST(Chebyshev, InterpolationReproducesAnalyticFunction) {
  const auto p = cheb_interpolate([](double x) { return std::exp(x); }, 20);
  for (double x : {-1.0, -0.5, 0.0, 0.5, 1.0}) {
    EXPECT_NEAR(p.evaluate(x), std::exp(x), 1e-13) << x;
  }
}

TEST(Chebyshev, InterpolationExactForPolynomials) {
  // f = T_3: interpolation at degree >= 3 returns exactly e_3.
  const auto p = cheb_interpolate([](double x) { return chebyshev_t(3, x); }, 8);
  for (int k = 0; k <= 8; ++k) {
    EXPECT_NEAR(p.coeffs()[k], k == 3 ? 1.0 : 0.0, 1e-14) << k;
  }
}

TEST(Chebyshev, CoefficientsOfAnalyticFunctionDecayGeometrically) {
  const auto p = cheb_interpolate([](double x) { return 1.0 / (2.0 + x); }, 40);
  EXPECT_LT(std::fabs(p.coeffs()[30]), 1e-12);
  EXPECT_GT(std::fabs(p.coeffs()[2]), 1e-3);
}

TEST(Chebyshev, ParityDetection) {
  EXPECT_EQ(ChebSeries({0.0, 1.0, 0.0, -0.5}).parity(), Parity::kOdd);
  EXPECT_EQ(ChebSeries({1.0, 0.0, 0.5}).parity(), Parity::kEven);
  EXPECT_EQ(ChebSeries({1.0, 1.0}).parity(), Parity::kNone);
}

TEST(Chebyshev, ParityProjectionZeroesWrongTerms) {
  const auto p = ChebSeries({1.0, 2.0, 3.0, 4.0}).parity_projected(Parity::kOdd);
  EXPECT_EQ(p.coeffs()[0], 0.0);
  EXPECT_EQ(p.coeffs()[1], 2.0);
  EXPECT_EQ(p.coeffs()[2], 0.0);
  EXPECT_EQ(p.coeffs()[3], 4.0);
}

TEST(Chebyshev, TruncationDropsTail) {
  const auto p = ChebSeries({1.0, 0.5, 1e-15, 1e-16}).truncated(1e-12);
  EXPECT_EQ(p.degree(), 1);
}

TEST(Chebyshev, ProductIdentity) {
  // T_2 * T_3 = (T_5 + T_1) / 2.
  ChebSeries t2({0, 0, 1}), t3({0, 0, 0, 1});
  const auto prod = t2 * t3;
  ASSERT_EQ(prod.degree(), 5);
  EXPECT_NEAR(prod.coeffs()[1], 0.5, 1e-15);
  EXPECT_NEAR(prod.coeffs()[5], 0.5, 1e-15);
  EXPECT_NEAR(prod.coeffs()[0], 0.0, 1e-15);
  EXPECT_NEAR(prod.coeffs()[3], 0.0, 1e-15);
}

TEST(Chebyshev, ProductMatchesPointwise) {
  ChebSeries a({0.3, -0.2, 0.7});
  ChebSeries b({0.0, 1.1, 0.0, -0.4});
  const auto prod = a * b;
  for (double x : {-0.8, -0.1, 0.5, 0.95}) {
    EXPECT_NEAR(prod.evaluate(x), a.evaluate(x) * b.evaluate(x), 1e-13) << x;
  }
}

TEST(Chebyshev, ArithmeticAndScaling) {
  ChebSeries a({1.0, 2.0});
  ChebSeries b({0.5, -1.0, 3.0});
  const auto sum = a + b;
  const auto diff = a - b;
  EXPECT_NEAR(sum.evaluate(0.3), a.evaluate(0.3) + b.evaluate(0.3), 1e-14);
  EXPECT_NEAR(diff.evaluate(0.3), a.evaluate(0.3) - b.evaluate(0.3), 1e-14);
  EXPECT_NEAR(a.scaled(2.0).evaluate(0.7), 2.0 * a.evaluate(0.7), 1e-14);
}

TEST(Chebyshev, MaxAbsOnInterval) {
  ChebSeries t3({0, 0, 0, 1});
  EXPECT_NEAR(t3.max_abs_on(-1.0, 1.0), 1.0, 1e-6);
  EXPECT_NEAR(t3.max_abs_on(0.9, 1.0), 1.0, 1e-9);
}

}  // namespace
}  // namespace mpqls::poly
