#include "poly/inverse_poly.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/special.hpp"

namespace mpqls::poly {

std::uint64_t inverse_b_parameter(double kappa, double eps) {
  expects(kappa >= 1.0, "inverse_b_parameter: kappa >= 1 required");
  expects(eps > 0.0 && eps < 1.0, "inverse_b_parameter: eps in (0,1) required");
  return static_cast<std::uint64_t>(std::ceil(kappa * kappa * std::log(kappa / eps)));
}

std::uint64_t inverse_degree_parameter(std::uint64_t b, double eps) {
  expects(b >= 1, "inverse_degree_parameter: b >= 1 required");
  const double bd = static_cast<double>(b);
  return static_cast<std::uint64_t>(std::ceil(std::sqrt(bd * std::log(4.0 * bd / eps))));
}

double smooth_inverse_target(double x, std::uint64_t b) {
  if (x == 0.0) return 0.0;  // odd function, removable zero
  // 1 - (1-x^2)^b = -expm1(b * log1p(-x^2)), stable for x^2 << 1.
  const double x2 = x * x;
  if (x2 >= 1.0) return 1.0 / x;
  return -std::expm1(static_cast<double>(b) * std::log1p(-x2)) / x;
}

namespace {

// Measure max_{x in [1/kappa, 1]} |2 kappa| * |P(x) - 1/(2 kappa x)|, the
// error relative to the inverse target (log-spaced samples resolve the
// boundary layer near 1/kappa).
double measure_error(const ChebSeries& p, double kappa, int samples = 4001) {
  std::vector<double> xs(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    const double t = static_cast<double>(i) / (samples - 1);
    xs[static_cast<std::size_t>(i)] = std::pow(kappa, -(1.0 - t));  // 1/kappa .. 1
  }
  const auto px = p.evaluate(xs);
  double worst = 0.0;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    const double err = std::fabs(px[i] - 1.0 / (2.0 * kappa * xs[i]));
    worst = std::fmax(worst, 2.0 * kappa * err);
  }
  return worst;
}

InversePoly finalize(ChebSeries series, double kappa, double eps, std::uint64_t b) {
  InversePoly out;
  out.kappa = kappa;
  out.eps = eps;
  out.b = b;
  out.max_abs = series.max_abs_on(-1.0, 1.0, 4001);
  out.achieved_error = measure_error(series, kappa);
  out.series = std::move(series);
  return out;
}

}  // namespace

InversePoly inverse_poly_analytic(double kappa, double eps) {
  const std::uint64_t b = inverse_b_parameter(kappa, eps / 2.0);
  const std::uint64_t D = inverse_degree_parameter(b, eps / 2.0);
  // Eq. (4): coefficient of T_{2j+1} is 4 (-1)^j P[X >= b+j+1],
  // X ~ Binomial(2b, 1/2); overall scale 1/(2 kappa) retargets 1/x to
  // 1/(2 kappa x).
  std::vector<double> coeffs(2 * D + 2, 0.0);
  for (std::uint64_t j = 0; j <= D; ++j) {
    const double tail = binomial_tail_half(2 * b, static_cast<std::int64_t>(b + j + 1));
    const double sign = (j % 2 == 0) ? 1.0 : -1.0;
    coeffs[2 * j + 1] = 4.0 * sign * tail / (2.0 * kappa);
  }
  return finalize(ChebSeries(std::move(coeffs)), kappa, eps, b);
}

InversePoly inverse_poly_interpolated(double kappa, double eps) {
  const std::uint64_t b = inverse_b_parameter(kappa, eps / 2.0);
  const std::uint64_t D = inverse_degree_parameter(b, eps / 2.0);
  const int paper_degree = static_cast<int>(2 * D + 1);

  const auto target = [kappa, b](double x) {
    return smooth_inverse_target(x, b) / (2.0 * kappa);
  };
  // Interpolate at the analytic (provably sufficient) degree, then let the
  // geometric tail decay tell us the degree actually required.
  ChebSeries dense = cheb_interpolate(target, paper_degree).parity_projected(Parity::kOdd);
  const double tail_tol = eps / (2.0 * kappa) * 1e-2;
  ChebSeries series = dense.truncated(tail_tol);
  auto result = finalize(std::move(series), kappa, eps, b);

  // If truncation was too aggressive (rare), fall back to the dense series.
  if (result.achieved_error > eps && dense.degree() > result.series.degree()) {
    result = finalize(std::move(dense), kappa, eps, b);
  }
  return result;
}

ChebSeries rect_window(double gap, double eps) {
  expects(gap > 0.0 && gap < 1.0, "rect_window: gap in (0,1) required");
  expects(eps > 0.0 && eps < 0.5, "rect_window: eps in (0,0.5) required");
  // Smooth step centered at gap*3/4 with the erf transition fitting inside
  // [gap/2, gap]: w(x) = 1 - 0.5*(erf(s(x+t)) - erf(s(x-t))), even in x.
  const double t = 0.75 * gap;
  const double erfc_inv = std::sqrt(std::log(2.0 / (M_PI * eps * eps)));
  const double s = erfc_inv / (0.25 * gap);
  const auto w = [s, t](double x) {
    return 1.0 - 0.5 * (std::erf(s * (x + t)) - std::erf(s * (x - t)));
  };
  // Chebyshev nodes are sparse near x = 0 where the transition sits, so
  // accept on measured function error (transition-focused grid), not on
  // coefficient decay.
  auto max_error = [&](const ChebSeries& p) {
    double worst = 0.0;
    for (int i = 0; i <= 400; ++i) {  // dense inside the transition band
      const double x = 2.0 * gap * i / 400.0;
      worst = std::fmax(worst, std::fabs(p.evaluate(x) - w(x)));
    }
    for (int i = 0; i <= 400; ++i) {  // coarse across the rest of [0, 1]
      const double x = 2.0 * gap + (1.0 - 2.0 * gap) * i / 400.0;
      worst = std::fmax(worst, std::fabs(p.evaluate(x) - w(x)));
    }
    return worst;
  };
  int degree = std::max(64, static_cast<int>(2.0 * s));
  for (;;) {
    ChebSeries series =
        cheb_interpolate(w, degree).parity_projected(Parity::kEven).truncated(eps * 1e-2);
    if (max_error(series) <= eps || degree >= (1 << 16)) return series;
    degree *= 2;
  }
}

}  // namespace mpqls::poly
