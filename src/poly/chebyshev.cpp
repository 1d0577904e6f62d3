#include "poly/chebyshev.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/contracts.hpp"

namespace mpqls::poly {

double ChebSeries::evaluate(double x) const {
  if (coeffs_.empty()) return 0.0;
  // Clenshaw recurrence.
  double b1 = 0.0, b2 = 0.0;
  for (std::size_t k = coeffs_.size(); k-- > 1;) {
    const double b0 = coeffs_[k] + 2.0 * x * b1 - b2;
    b2 = b1;
    b1 = b0;
  }
  return coeffs_[0] + x * b1 - b2;
}

std::vector<double> ChebSeries::evaluate(const std::vector<double>& xs) const {
  std::vector<double> out(xs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) out[i] = evaluate(xs[i]);
  return out;
}

Parity ChebSeries::parity(double tol) const {
  bool has_even = false, has_odd = false;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    if (std::fabs(coeffs_[k]) > tol) {
      (k % 2 == 0 ? has_even : has_odd) = true;
    }
  }
  if (has_even && has_odd) return Parity::kNone;
  if (has_odd) return Parity::kOdd;
  return Parity::kEven;  // includes the zero polynomial
}

ChebSeries ChebSeries::truncated(double tol) const {
  std::size_t last = 0;
  for (std::size_t k = 0; k < coeffs_.size(); ++k) {
    if (std::fabs(coeffs_[k]) > tol) last = k;
  }
  return ChebSeries(std::vector<double>(coeffs_.begin(), coeffs_.begin() + last + 1));
}

ChebSeries ChebSeries::parity_projected(Parity p) const {
  expects(p != Parity::kNone, "parity_projected needs a definite parity");
  std::vector<double> out = coeffs_;
  const std::size_t want = (p == Parity::kOdd) ? 1 : 0;
  for (std::size_t k = 0; k < out.size(); ++k) {
    if (k % 2 != want) out[k] = 0.0;
  }
  return ChebSeries(std::move(out));
}

double ChebSeries::max_abs_on(double lo, double hi, int samples) const {
  expects(samples >= 2, "max_abs_on needs at least 2 samples");
  double m = 0.0;
  for (int i = 0; i < samples; ++i) {
    const double x = lo + (hi - lo) * i / (samples - 1);
    m = std::fmax(m, std::fabs(evaluate(x)));
  }
  return m;
}

ChebSeries ChebSeries::scaled(double factor) const {
  std::vector<double> out = coeffs_;
  for (auto& c : out) c *= factor;
  return ChebSeries(std::move(out));
}

ChebSeries ChebSeries::operator+(const ChebSeries& other) const {
  std::vector<double> out(std::max(coeffs_.size(), other.coeffs_.size()), 0.0);
  for (std::size_t k = 0; k < coeffs_.size(); ++k) out[k] += coeffs_[k];
  for (std::size_t k = 0; k < other.coeffs_.size(); ++k) out[k] += other.coeffs_[k];
  return ChebSeries(std::move(out));
}

ChebSeries ChebSeries::operator-(const ChebSeries& other) const {
  return *this + other.scaled(-1.0);
}

ChebSeries ChebSeries::operator*(const ChebSeries& other) const {
  if (coeffs_.empty() || other.coeffs_.empty()) return ChebSeries();
  std::vector<double> out(coeffs_.size() + other.coeffs_.size() - 1, 0.0);
  for (std::size_t m = 0; m < coeffs_.size(); ++m) {
    if (coeffs_[m] == 0.0) continue;
    for (std::size_t n = 0; n < other.coeffs_.size(); ++n) {
      const double c = 0.5 * coeffs_[m] * other.coeffs_[n];
      out[m + n] += c;
      out[static_cast<std::size_t>(std::abs(static_cast<long long>(m) -
                                            static_cast<long long>(n)))] += c;
    }
  }
  return ChebSeries(std::move(out));
}

ChebSeries cheb_interpolate(const std::function<double(double)>& f, int degree) {
  expects(degree >= 0, "cheb_interpolate: degree must be >= 0");
  const int n = degree + 1;
  std::vector<double> fx(n);
  for (int j = 0; j < n; ++j) {
    const double x = std::cos(M_PI * (j + 0.5) / n);
    fx[j] = f(x);
  }
  std::vector<double> coeffs(n);
  for (int k = 0; k < n; ++k) {
    double s = 0.0;
    for (int j = 0; j < n; ++j) {
      s += fx[j] * std::cos(M_PI * k * (j + 0.5) / n);
    }
    coeffs[k] = (k == 0 ? 1.0 : 2.0) * s / n;
  }
  return ChebSeries(std::move(coeffs));
}

double chebyshev_t(int k, double x) {
  if (std::fabs(x) <= 1.0) return std::cos(k * std::acos(x));
  const double t = std::fabs(x) + std::sqrt(x * x - 1.0);
  const double v = 0.5 * (std::pow(t, k) + std::pow(t, -k));
  return (x < 0.0 && (k % 2 == 1)) ? -v : v;
}

}  // namespace mpqls::poly
