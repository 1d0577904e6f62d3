// Chebyshev series machinery. The QSVT consumes polynomials expressed in
// the Chebyshev basis (Eq. (4) of the paper is given there directly), which
// sidesteps Runge's phenomenon at the high degrees matrix inversion needs.
#pragma once

#include <functional>
#include <vector>

namespace mpqls::poly {

enum class Parity { kEven, kOdd, kNone };

/// Polynomial in the Chebyshev basis: p(x) = sum_k coeffs[k] * T_k(x).
class ChebSeries {
 public:
  ChebSeries() = default;
  explicit ChebSeries(std::vector<double> coeffs) : coeffs_(std::move(coeffs)) {}

  const std::vector<double>& coeffs() const { return coeffs_; }
  std::vector<double>& coeffs() { return coeffs_; }
  int degree() const { return static_cast<int>(coeffs_.size()) - 1; }
  bool empty() const { return coeffs_.empty(); }

  /// Evaluate with the Clenshaw recurrence (numerically stable on [-1,1]).
  double evaluate(double x) const;

  /// Evaluate at many points: blocks of points run their recurrences
  /// interleaved, so no point waits on another's multiply-add latency.
  /// Each point runs the scalar evaluate's arithmetic.
  std::vector<double> evaluate(const std::vector<double>& xs) const;

  /// Parity of the series: kOdd/kEven if all non-matching coefficients are
  /// below `tol` in magnitude, else kNone.
  Parity parity(double tol = 1e-12) const;

  /// Drop trailing coefficients smaller than `tol` (in absolute value).
  ChebSeries truncated(double tol) const;

  /// Zero all coefficients of the wrong parity (used to clean numerically
  /// interpolated odd/even targets).
  ChebSeries parity_projected(Parity p) const;

  /// max |p(x)| over a uniform grid of `samples` points on [lo, hi].
  double max_abs_on(double lo, double hi, int samples = 2001) const;

  ChebSeries scaled(double factor) const;
  ChebSeries operator+(const ChebSeries& other) const;
  ChebSeries operator-(const ChebSeries& other) const;

  /// Product using T_m T_n = (T_{m+n} + T_{|m-n|}) / 2.
  ChebSeries operator*(const ChebSeries& other) const;

 private:
  std::vector<double> coeffs_;
};

/// Chebyshev interpolation: coefficients of the degree-`degree` interpolant
/// of f through the Chebyshev-Gauss nodes x_j = cos(pi (j + 1/2) / (degree+1)).
/// For f analytic the coefficients decay geometrically, so pairing this
/// with ChebSeries::truncated gives near-minimal degrees.
ChebSeries cheb_interpolate(const std::function<double(double)>& f, int degree);

/// cos(2 pi r / period) for r = 0..period-1. At the n-point Gauss-Chebyshev
/// nodes x_j = cos(pi (2j+1) / (2n)) — entry 2j+1 of the period-4n cycle —
/// T_k(x_j) is entry k (2j+1) mod 4n: the argument reduction is exact
/// integer arithmetic, and a quadrature needs 4n cosines instead of one
/// per (k, j) pair.
std::vector<double> cosine_cycle(int period);

/// T_k(x) for a single k (hypot-stable for |x| <= 1 and beyond).
double chebyshev_t(int k, double x);

}  // namespace mpqls::poly
