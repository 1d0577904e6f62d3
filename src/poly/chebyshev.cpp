#include "poly/chebyshev.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/contracts.hpp"

namespace mpqls::poly {

namespace {

/// Points whose Clenshaw recurrences run interleaved in a batched evaluate.
constexpr std::size_t kClenshawBlock = 8;

/// Clenshaw recurrence at B points at once. The scalar evaluate is B = 1,
/// so every point runs the same arithmetic in either form.
template <std::size_t B>
inline void clenshaw(const std::vector<double>& c, const double* x, double* out) {
  double b1[B] = {};
  double b2[B] = {};
  for (std::size_t k = c.size(); k-- > 1;) {
    for (std::size_t i = 0; i < B; ++i) {
      const double b0 = c[k] + 2.0 * x[i] * b1[i] - b2[i];
      b2[i] = b1[i];
      b1[i] = b0;
    }
  }
  for (std::size_t i = 0; i < B; ++i) out[i] = c[0] + x[i] * b1[i] - b2[i];
}

}  // namespace

double ChebSeries::evaluate(double x) const {
  if (coeffs_.empty()) return 0.0;
  double out;
  clenshaw<1>(coeffs_, &x, &out);
  return out;
}

std::vector<double> ChebSeries::evaluate(const std::vector<double>& xs) const {
  std::vector<double> out(xs.size(), 0.0);
  if (coeffs_.empty()) return out;
  std::size_t i = 0;
  for (; i + kClenshawBlock <= xs.size(); i += kClenshawBlock) {
    clenshaw<kClenshawBlock>(coeffs_, &xs[i], &out[i]);
  }
  for (; i < xs.size(); ++i) clenshaw<1>(coeffs_, &xs[i], &out[i]);
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
  std::vector<double> xs(static_cast<std::size_t>(samples));
  for (int i = 0; i < samples; ++i) {
    xs[static_cast<std::size_t>(i)] = lo + (hi - lo) * i / (samples - 1);
  }
  double m = 0.0;
  for (const double v : evaluate(xs)) m = std::fmax(m, std::fabs(v));
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
  const auto n = static_cast<std::size_t>(degree) + 1;
  const auto cyc = cosine_cycle(static_cast<int>(4 * n));
  std::vector<double> fx(n);
  for (std::size_t j = 0; j < n; ++j) fx[j] = f(cyc[2 * j + 1]);
  std::vector<double> coeffs(n);
  for (std::size_t k = 0; k < n; ++k) {
    double s = 0.0;
    for (std::size_t j = 0; j < n; ++j) s += fx[j] * cyc[k * (2 * j + 1) % (4 * n)];
    coeffs[k] = (k == 0 ? 1.0 : 2.0) * s / static_cast<double>(n);
  }
  return ChebSeries(std::move(coeffs));
}

std::vector<double> cosine_cycle(int period) {
  expects(period >= 1, "cosine_cycle: period must be >= 1");
  std::vector<double> cyc(static_cast<std::size_t>(period));
  for (int r = 0; r < period; ++r) {
    cyc[static_cast<std::size_t>(r)] = std::cos(2.0 * M_PI * r / period);
  }
  return cyc;
}

double chebyshev_t(int k, double x) {
  if (std::fabs(x) <= 1.0) return std::cos(k * std::acos(x));
  const double t = std::fabs(x) + std::sqrt(x * x - 1.0);
  const double v = 0.5 * (std::pow(t, k) + std::pow(t, -k));
  return (x < 0.0 && (k % 2 == 1)) ? -v : v;
}

}  // namespace mpqls::poly
