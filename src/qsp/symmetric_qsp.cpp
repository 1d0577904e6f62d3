#include "qsp/symmetric_qsp.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/lbfgs.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace mpqls::qsp {

namespace {

using c64 = std::complex<double>;

// 2x2 product helpers kept open-coded: this is the inner loop of the
// whole phase-finding pipeline.
struct M2 {
  c64 a, b, c, d;  // [[a, b], [c, d]]
};

inline M2 mul(const M2& x, const M2& y) {
  return {x.a * y.a + x.b * y.c, x.a * y.b + x.b * y.d,
          x.c * y.a + x.d * y.c, x.c * y.b + x.d * y.d};
}

inline M2 w_matrix(double x) {
  const double s = std::sqrt(std::fmax(0.0, 1.0 - x * x));
  return {c64(x, 0), c64(0, s), c64(0, s), c64(x, 0)};
}

inline M2 z_phase(double phi) {
  return {std::exp(c64(0, phi)), 0, 0, std::exp(c64(0, -phi))};
}

/// e^{i phi_j Z} for every phase. They depend only on the phases, so a
/// caller evaluating one phase vector at many signals builds them once
/// (two complex exps per phase) instead of once per signal.
std::vector<M2> z_phases(const std::vector<double>& phases) {
  expects(!phases.empty(), "qsp needs at least one phase");
  std::vector<M2> z(phases.size());
  for (std::size_t j = 0; j < phases.size(); ++j) z[j] = z_phase(phases[j]);
  return z;
}

M2 qsp_matrix(const std::vector<M2>& z, double x) {
  const M2 w = w_matrix(x);
  M2 u = z[0];
  for (std::size_t j = 1; j < z.size(); ++j) u = mul(u, mul(w, z[j]));
  return u;
}

double response(const std::vector<M2>& z, double x) { return qsp_matrix(z, x).a.imag(); }

/// The response at the n Gauss-Chebyshev nodes cos(pi (j + 1/2) / n).
std::vector<double> node_values(const std::vector<M2>& z, int n) {
  std::vector<double> g(n);
  for (int j = 0; j < n; ++j) g[j] = response(z, std::cos(M_PI * (j + 0.5) / n));
  return g;
}

/// Coefficient of T_k by Gauss-Chebyshev quadrature over node_values.
double cheb_coeff(const std::vector<double>& g, int k) {
  const int n = static_cast<int>(g.size());
  double s = 0.0;
  for (int j = 0; j < n; ++j) s += g[j] * std::cos(M_PI * k * (j + 0.5) / n);
  return (k == 0 ? 1.0 : 2.0) * s / n;
}

}  // namespace

Su2 qsp_unitary(const std::vector<double>& phases, double x) {
  const M2 u = qsp_matrix(z_phases(phases), x);
  return {u.a, u.b, u.c, u.d};
}

double qsp_response(const std::vector<double>& phases, double x) {
  return response(z_phases(phases), x);
}

std::vector<double> response_cheb_coeffs(const std::vector<double>& phases, int degree) {
  const int n = degree + 1;
  const auto g = node_values(z_phases(phases), n);
  std::vector<double> coeffs(n);
  for (int k = 0; k < n; ++k) coeffs[k] = cheb_coeff(g, k);
  return coeffs;
}

namespace {

struct ReducedProblem {
  int d = 0;                    ///< polynomial degree
  int m = 0;                    ///< reduced unknowns
  bool has_middle = false;      ///< d even: phi_{d/2} unpaired
  std::vector<double> nodes;    ///< m positive reduced Chebyshev nodes
  std::vector<double> f_nodes;  ///< target values at the nodes
  std::vector<double> c;        ///< target coeffs of T_{d-2k}, k = 0..m-1
  std::vector<double> weight;   ///< linearization weight (2, or 1 for middle)
};

std::vector<double> full_phases(const ReducedProblem& p, const std::vector<double>& psi) {
  std::vector<double> phi(static_cast<std::size_t>(p.d) + 1, 0.0);
  for (int k = 0; k < p.m; ++k) {
    phi[static_cast<std::size_t>(k)] = psi[static_cast<std::size_t>(k)];
    phi[static_cast<std::size_t>(p.d - k)] = psi[static_cast<std::size_t>(k)];
  }
  return phi;
}

ReducedProblem make_problem(const poly::ChebSeries& target) {
  ReducedProblem p;
  const auto& coeffs = target.coeffs();
  p.d = target.degree();
  expects(p.d >= 1, "symmetric QSP: degree >= 1 required");
  p.m = p.d / 2 + 1;
  p.has_middle = (p.d % 2 == 0);
  p.nodes.resize(p.m);
  p.f_nodes.resize(p.m);
  p.c.resize(p.m);
  p.weight.assign(p.m, 2.0);
  if (p.has_middle) p.weight[static_cast<std::size_t>(p.m - 1)] = 1.0;
  for (int k = 0; k < p.m; ++k) {
    // Reduced positive Chebyshev nodes of [13]: x_k = cos((2k+1) pi / (4m)).
    p.nodes[static_cast<std::size_t>(k)] = std::cos((2.0 * k + 1.0) * M_PI / (4.0 * p.m));
    const int order = p.d - 2 * k;
    p.c[static_cast<std::size_t>(k)] = coeffs[static_cast<std::size_t>(order)];
  }
  for (int k = 0; k < p.m; ++k) {
    p.f_nodes[static_cast<std::size_t>(k)] = target.evaluate(p.nodes[static_cast<std::size_t>(k)]);
  }
  return p;
}

double node_residual(const ReducedProblem& p, const std::vector<double>& phi,
                     std::vector<double>* out_gap = nullptr) {
  double worst = 0.0;
  if (out_gap != nullptr) out_gap->resize(static_cast<std::size_t>(p.m));
  const auto z = z_phases(phi);
  for (int k = 0; k < p.m; ++k) {
    const double g = response(z, p.nodes[static_cast<std::size_t>(k)]);
    const double gap = p.f_nodes[static_cast<std::size_t>(k)] - g;
    if (out_gap != nullptr) (*out_gap)[static_cast<std::size_t>(k)] = gap;
    worst = std::fmax(worst, std::fabs(gap));
  }
  return worst;
}

// d(response)/d(phi_j) at x, for all j, via prefix/suffix products:
// dU/dphi_j = A_j (iZ) B_j with A_j the product up to and including
// e^{i phi_j Z} and B_j the remainder. d Im(U00)/d phi_j = Re[(A_j Z B_j)00]
// ... note (iZ) contributes i * (A Z B)00 and Im(i w) = Re(w).
// `z` is z_phases(phi).
void response_gradient(const std::vector<M2>& z, double x, std::vector<double>& grad) {
  const std::size_t n = z.size();
  grad.resize(n);
  const M2 w = w_matrix(x);
  // prefix[j] = e^{i phi_0 Z} W e^{i phi_1 Z} ... W e^{i phi_j Z}
  std::vector<M2> prefix(n);
  prefix[0] = z[0];
  for (std::size_t j = 1; j < n; ++j) prefix[j] = mul(prefix[j - 1], mul(w, z[j]));
  // suffix[j] = W e^{i phi_{j+1} Z} ... W e^{i phi_d Z}; suffix[d] = I.
  std::vector<M2> suffix(n);
  suffix[n - 1] = {1, 0, 0, 1};
  for (std::size_t j = n - 1; j-- > 0;) suffix[j] = mul(mul(w, z[j + 1]), suffix[j]);
  for (std::size_t j = 0; j < n; ++j) {
    const M2& a = prefix[j];
    const M2& b = suffix[j];
    // (A Z B)00 = a00 b00 - a01 b10  (Z = diag(1,-1)).
    const c64 azb = a.a * b.a - a.b * b.c;
    grad[j] = azb.real();
  }
}

}  // namespace

SymQspResult solve_symmetric_qsp(const poly::ChebSeries& target, const SymQspOptions& opts) {
  expects(target.parity() != poly::Parity::kNone,
          "symmetric QSP target must have definite parity");
  expects(target.max_abs_on(-1.0, 1.0) < 1.0, "symmetric QSP target must satisfy |f| < 1");

  ReducedProblem p = make_problem(target);
  SymQspResult res;

  // --- Stage 1: fixed-point iteration on the coefficient map -------------
  std::vector<double> psi(static_cast<std::size_t>(p.m));
  for (int k = 0; k < p.m; ++k) {
    psi[static_cast<std::size_t>(k)] = p.c[static_cast<std::size_t>(k)] /
                                       p.weight[static_cast<std::size_t>(k)];
  }
  double best_residual = node_residual(p, full_phases(p, psi));
  std::vector<double> best_psi = psi;

  int stall = 0;
  for (int it = 0; it < opts.max_fpi_iterations; ++it) {
    // Only the orders of the target's parity enter the update, so only
    // those coefficients are computed.
    const auto g = node_values(z_phases(full_phases(p, psi)), p.d + 1);
    double delta = 0.0;
    for (int k = 0; k < p.m; ++k) {
      const double fk = cheb_coeff(g, p.d - 2 * k);
      const double gap = p.c[static_cast<std::size_t>(k)] - fk;
      psi[static_cast<std::size_t>(k)] += gap / p.weight[static_cast<std::size_t>(k)];
      delta = std::fmax(delta, std::fabs(gap));
    }
    res.fpi_iterations = it + 1;
    const double r = node_residual(p, full_phases(p, psi));
    if (r < 0.9 * best_residual) {
      stall = 0;
    } else {
      ++stall;
    }
    if (r < best_residual) {
      best_residual = r;
      best_psi = psi;
    }
    if (delta < opts.tolerance) break;
    // FPI only contracts for small ||c||_1 (Dong et al.); once it stops
    // making progress, hand the best iterate to Newton instead of burning
    // the full iteration budget.
    if (stall >= 10) break;
  }
  psi = best_psi;
  res.method = "fpi";
  res.residual = best_residual;

  // --- Stage 2: Newton on the collocation map ------------------------------
  if (best_residual >= opts.tolerance && opts.enable_newton) {
    std::vector<double> gap;
    std::vector<double> grad;
    for (int it = 0; it < opts.max_newton_iterations; ++it) {
      const auto phi = full_phases(p, psi);
      const double r = node_residual(p, phi, &gap);
      if (r < best_residual) {
        best_residual = r;
        best_psi = psi;
      }
      if (r < opts.tolerance) break;
      // J_{k,l} = d g(x_k) / d psi_l = d/d phi_l + d/d phi_{d-l}.
      linalg::Matrix<double> J(static_cast<std::size_t>(p.m), static_cast<std::size_t>(p.m));
      const auto z = z_phases(phi);
      for (int k = 0; k < p.m; ++k) {
        response_gradient(z, p.nodes[static_cast<std::size_t>(k)], grad);
        for (int l = 0; l < p.m; ++l) {
          double v = grad[static_cast<std::size_t>(l)];
          if (l != p.d - l) v += grad[static_cast<std::size_t>(p.d - l)];
          J(static_cast<std::size_t>(k), static_cast<std::size_t>(l)) = v;
        }
      }
      const auto f = linalg::lu_factor(J);
      if (f.singular) break;
      const auto step = linalg::lu_solve(f, gap);
      for (int l = 0; l < p.m; ++l) psi[static_cast<std::size_t>(l)] += step[static_cast<std::size_t>(l)];
      res.newton_iterations = it + 1;
    }
    const double r = node_residual(p, full_phases(p, psi));
    if (r < best_residual) {
      best_residual = r;
      best_psi = psi;
    }
    psi = best_psi;
    if (res.newton_iterations > 0) res.method = "newton";
    res.residual = best_residual;
  }

  // --- Stage 3: L-BFGS on the least-squares objective (rescue only) -------
  if (best_residual >= std::fmax(opts.tolerance, opts.lbfgs_threshold) &&
      opts.enable_lbfgs) {
    auto objective = [&p](const std::vector<double>& psi_v, std::vector<double>& g_out) {
      const auto z = z_phases(full_phases(p, psi_v));
      g_out.assign(psi_v.size(), 0.0);
      double val = 0.0;
      std::vector<double> grad;
      for (int k = 0; k < p.m; ++k) {
        const double x = p.nodes[static_cast<std::size_t>(k)];
        const double gap = response(z, x) - p.f_nodes[static_cast<std::size_t>(k)];
        val += 0.5 * gap * gap;
        response_gradient(z, x, grad);
        for (int l = 0; l < p.m; ++l) {
          double v = grad[static_cast<std::size_t>(l)];
          if (l != p.d - l) v += grad[static_cast<std::size_t>(p.d - l)];
          g_out[static_cast<std::size_t>(l)] += gap * v;
        }
      }
      return val;
    };
    LbfgsOptions lopts;
    lopts.max_iterations = opts.max_lbfgs_iterations;
    lopts.gradient_tolerance = 1e-14;
    const auto lr = lbfgs_minimize(objective, psi, lopts);
    const double r = node_residual(p, full_phases(p, lr.x));
    if (r < best_residual) {
      best_residual = r;
      best_psi = lr.x;
      res.method = "lbfgs";
    }
  }

  res.phases = full_phases(p, best_psi);
  res.residual = best_residual;
  // 1e-9 on the response is far below any eps_l the solver requests; the
  // exact residual is reported for callers with stricter needs.
  res.converged = best_residual < std::fmax(opts.tolerance, 1e-9);
  return res;
}

}  // namespace mpqls::qsp
