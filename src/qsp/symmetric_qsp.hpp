// Quantum signal processing phase factors for symmetric QSP (the paper's
// reference [13]: Dong, Lin, Ni, Wang, SIAM J. Sci. Comput. 2024).
//
// Convention (Wx): U_Phi(x) = e^{i phi_0 Z} prod_{j=1..d} [ W(x) e^{i phi_j Z} ]
// with W(x) = [[x, i sqrt(1-x^2)], [i sqrt(1-x^2), x]]. For a symmetric
// phase vector (phi_j = phi_{d-j}) the imaginary part of <0|U_Phi|0> is a
// degree-d polynomial of parity d mod 2; the solver below finds Phi such
// that Im<0|U_Phi|0> equals a given target Chebyshev series.
//
// Evaluation. Every factor lies in SU(2), so U_Phi(x) = [[a, b], [-b*, a*]]
// and row 0 (a, b) determines it. That row follows a two-complex
// recurrence over the precomputed (cos phi_j, sin phi_j):
//   (a, b) <- (x a + i s b, i s a + x b),  then  (a e^{i phi_j}, b e^{-i phi_j}),
// with s = sqrt(1-x^2): O(d) real arithmetic per signal and no trig. The
// derivative in phi_j needs row 0 of the prefix product and column 0 of
// the suffix product, the latter by the same two steps in reverse order.
//
// Quadrature. With d of definite parity and m = floor(d/2) + 1 unknowns,
// the 2m-point Gauss-Chebyshev rule is exact for the response's
// coefficients (2m > d), and by parity its sum over all 2m nodes is twice
// the sum over its positive half x_k = cos((2k+1) pi / (4m)), k < m — the
// reduced nodes of [13]. One evaluation at those m nodes therefore serves
// both the coefficient update and the residual check, and the coefficient
// extraction is an m x m matvec against a cosine table built once per
// problem.
//
// Solver strategy (mirrors [13]):
//  1. fixed-point iteration on the Chebyshev-coefficient map, O(m d) per
//     iterate (converges for small ||c||_1),
//  2. Newton's method on the collocation map at the reduced nodes,
//     O(m d) for the Jacobian plus an O(m^3) LU per step (quadratic
//     convergence, robust up to ||f||_inf -> 1),
//  3. L-BFGS on the collocation least-squares objective as a last resort,
//     O(m d) per gradient.
#pragma once

#include <complex>
#include <string>
#include <vector>

#include "poly/chebyshev.hpp"

namespace mpqls::qsp {

/// 2x2 unitary of the QSP sequence at scalar signal x in [-1, 1].
struct Su2 {
  std::complex<double> u00, u01, u10, u11;
};
Su2 qsp_unitary(const std::vector<double>& phases, double x);

/// Im <0|U_Phi(x)|0> — the polynomial a symmetric phase vector encodes.
double qsp_response(const std::vector<double>& phases, double x);

/// d qsp_response(phases, x) / d phases[j] for every j, in O(d).
std::vector<double> qsp_response_gradient(const std::vector<double>& phases, double x);

/// All Chebyshev coefficients (orders 0..degree) of x -> qsp_response(x),
/// computed by Gauss-Chebyshev quadrature at degree+1 nodes (exact for the
/// polynomial response).
std::vector<double> response_cheb_coeffs(const std::vector<double>& phases, int degree);

struct SymQspOptions {
  int max_fpi_iterations = 500;
  int max_newton_iterations = 30;
  double tolerance = 1e-11;  ///< on max residual over reduced nodes
  bool enable_newton = true;
  /// L-BFGS is a rescue stage for targets the other two cannot crack; it
  /// only engages when the residual is still above `lbfgs_threshold`.
  bool enable_lbfgs = true;
  double lbfgs_threshold = 1e-7;
  int max_lbfgs_iterations = 500;
};

struct SymQspResult {
  std::vector<double> phases;  ///< full symmetric vector, length degree+1
  double residual = 0.0;       ///< max |response - target| at reduced nodes
  int fpi_iterations = 0;
  int newton_iterations = 0;
  std::string method;          ///< "fpi", "newton", or "lbfgs"
  bool converged = false;
};

/// Find symmetric phases encoding `target` (definite parity, max|f| < 1).
SymQspResult solve_symmetric_qsp(const poly::ChebSeries& target,
                                 const SymQspOptions& opts = {});

}  // namespace mpqls::qsp
