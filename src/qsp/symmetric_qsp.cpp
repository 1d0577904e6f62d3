#include "qsp/symmetric_qsp.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "common/lbfgs.hpp"
#include "linalg/lu.hpp"
#include "linalg/matrix.hpp"

namespace mpqls::qsp {

namespace {

/// (cos phi_j, sin phi_j) for every phase: the only trigonometry a phase
/// vector needs, computed once however many signals it is evaluated at.
struct PhaseTrig {
  std::vector<double> c, s;
};

PhaseTrig phase_trig(const std::vector<double>& phases) {
  expects(!phases.empty(), "qsp needs at least one phase");
  PhaseTrig t;
  t.c.resize(phases.size());
  t.s.resize(phases.size());
  for (std::size_t j = 0; j < phases.size(); ++j) {
    t.c[j] = std::cos(phases[j]);
    t.s[j] = std::sin(phases[j]);
  }
  return t;
}

/// sqrt(1 - x^2), factored so that it keeps full relative accuracy near |x| = 1.
inline double signal_sine(double x) { return std::sqrt(std::fmax(0.0, (1.0 - x) * (1.0 + x))); }

/// A pair (a, b) of complex numbers, split into real and imaginary parts:
/// row 0 of a prefix product or column 0 of a suffix product.
struct Pair {
  double ar, ai, br, bi;
};

/// (a, b) W(x). W is symmetric, so this is also W(x) (a, b)^T.
inline Pair times_w(const Pair& v, double x, double s) {
  return {x * v.ar - s * v.bi, x * v.ai + s * v.br, x * v.br - s * v.ai, x * v.bi + s * v.ar};
}

/// (a e^{i phi}, b e^{-i phi}): e^{i phi Z} applied from either side.
inline Pair times_z(const Pair& v, double c, double s) {
  return {c * v.ar - s * v.ai, c * v.ai + s * v.ar, c * v.br + s * v.bi, c * v.bi - s * v.br};
}

/// Signals x_k and row 0 (a_k, b_k) of U_Phi(x_k), one plane per part.
struct RowBlock {
  std::vector<double> x, s;            ///< signals and sqrt(1 - x^2)
  std::vector<double> ar, ai, br, bi;  ///< row 0 of U_Phi at each signal

  explicit RowBlock(std::vector<double> signals)
      : x(std::move(signals)), s(x.size()), ar(x.size()), ai(x.size()), br(x.size()),
        bi(x.size()) {
    for (std::size_t k = 0; k < x.size(); ++k) s[k] = signal_sine(x[k]);
  }
};

/// Row 0 of U_Phi at every signal of `r`, by the row recurrence from row 0
/// of e^{i phi_0 Z}. Signals run innermost, so the loop vectorizes across
/// them: O(d) per signal.
void qsp_rows(const PhaseTrig& t, RowBlock& r) {
  const std::size_t n = r.x.size();
  const double* x = r.x.data();
  const double* s = r.s.data();
  double* ar = r.ar.data();
  double* ai = r.ai.data();
  double* br = r.br.data();
  double* bi = r.bi.data();
  for (std::size_t k = 0; k < n; ++k) {
    ar[k] = t.c[0];
    ai[k] = t.s[0];
    br[k] = 0.0;
    bi[k] = 0.0;
  }
  for (std::size_t j = 1; j < t.c.size(); ++j) {
    const double c = t.c[j];
    const double sn = t.s[j];
#pragma omp simd
    for (std::size_t k = 0; k < n; ++k) {
      const Pair v = times_z(times_w({ar[k], ai[k], br[k], bi[k]}, x[k], s[k]), c, sn);
      ar[k] = v.ar;
      ai[k] = v.ai;
      br[k] = v.br;
      bi[k] = v.bi;
    }
  }
}

/// d Im<0|U_Phi(x)|0> / d phi_j for every j, and the response itself, in
/// O(d). dU/dphi_j = A_j (iZ) B_j with A_j the product up to and including
/// e^{i phi_j Z} and B_j the rest, so the derivative is
/// Re[(A_j Z B_j)00] = Re[a00 b00 - a01 b10]: row 0 of each prefix (kept in
/// `prefix`) against column 0 of each suffix (built backwards from B_d = I
/// by B_{j-1} = W e^{i phi_j Z} B_j).
double response_gradient(const PhaseTrig& t, double x, std::vector<Pair>& prefix,
                         std::vector<double>& grad) {
  const std::size_t n = t.c.size();
  const double s = signal_sine(x);
  prefix.resize(n);
  grad.resize(n);
  prefix[0] = {t.c[0], t.s[0], 0.0, 0.0};
  for (std::size_t j = 1; j < n; ++j) {
    prefix[j] = times_z(times_w(prefix[j - 1], x, s), t.c[j], t.s[j]);
  }
  Pair col{1.0, 0.0, 0.0, 0.0};
  for (std::size_t j = n; j-- > 0;) {
    const Pair& a = prefix[j];
    grad[j] = (a.ar * col.ar - a.ai * col.ai) - (a.br * col.br - a.bi * col.bi);
    col = times_w(times_z(col, t.c[j], t.s[j]), x, s);
  }
  return prefix[n - 1].ai;
}

}  // namespace

Su2 qsp_unitary(const std::vector<double>& phases, double x) {
  RowBlock r({x});
  qsp_rows(phase_trig(phases), r);
  const std::complex<double> a(r.ar[0], r.ai[0]);
  const std::complex<double> b(r.br[0], r.bi[0]);
  return {a, b, -std::conj(b), std::conj(a)};
}

double qsp_response(const std::vector<double>& phases, double x) {
  return qsp_unitary(phases, x).u00.imag();
}

std::vector<double> qsp_response_gradient(const std::vector<double>& phases, double x) {
  std::vector<Pair> prefix;
  std::vector<double> grad;
  response_gradient(phase_trig(phases), x, prefix, grad);
  return grad;
}

std::vector<double> response_cheb_coeffs(const std::vector<double>& phases, int degree) {
  expects(degree >= 0, "response_cheb_coeffs: degree must be >= 0");
  // The n-point Gauss-Chebyshev rule: node j is entry 2j+1 of the
  // period-4n cosine cycle and T_k there is entry k (2j+1) mod 4n.
  const std::size_t n = static_cast<std::size_t>(degree) + 1;
  const auto cyc = poly::cosine_cycle(static_cast<int>(4 * n));
  std::vector<double> nodes(n);
  for (std::size_t j = 0; j < n; ++j) nodes[j] = cyc[2 * j + 1];
  RowBlock r(std::move(nodes));
  qsp_rows(phase_trig(phases), r);
  std::vector<double> coeffs(n);
  for (std::size_t k = 0; k < n; ++k) {
    double sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) sum += r.ai[j] * cyc[k * (2 * j + 1) % (4 * n)];
    coeffs[k] = (k == 0 ? 1.0 : 2.0) * sum / static_cast<double>(n);
  }
  return coeffs;
}

namespace {

struct ReducedProblem {
  int d = 0;                    ///< polynomial degree
  int m = 0;                    ///< reduced unknowns
  std::vector<double> nodes;    ///< m positive reduced Chebyshev nodes
  std::vector<double> f_nodes;  ///< target values at the nodes
  std::vector<double> c;        ///< target coeffs of T_{d-2k}, k = 0..m-1
  std::vector<double> weight;   ///< linearization weight (2, or 1 for middle)
  /// Row k: the quadrature weights extracting the coefficient of T_{d-2k}
  /// from the response at the nodes (row-major m x m).
  std::vector<double> coeff_table;
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
  const auto m = static_cast<std::size_t>(p.m);
  // The 2m-point Gauss-Chebyshev rule over the period-8m cosine cycle: its
  // positive half is the reduced nodes of [13], x_k = cos((2k+1) pi / (4m)).
  const std::size_t period = 8 * m;
  const auto cyc = poly::cosine_cycle(static_cast<int>(period));
  p.nodes.resize(m);
  p.c.resize(m);
  p.weight.assign(m, 2.0);
  if (p.d % 2 == 0) p.weight[m - 1] = 1.0;  // phi_{d/2} is unpaired
  p.coeff_table.resize(m * m);
  for (std::size_t k = 0; k < m; ++k) {
    p.nodes[k] = cyc[2 * k + 1];
    const std::size_t order = static_cast<std::size_t>(p.d) - 2 * k;
    p.c[k] = coeffs[order];
    // Parity doubles the half-rule sum: c_k = (order ? 2 : 1) / m * sum_{j<m}.
    const double w = (order == 0 ? 1.0 : 2.0) / static_cast<double>(m);
    for (std::size_t j = 0; j < m; ++j) {
      p.coeff_table[k * m + j] = w * cyc[order * (2 * j + 1) % period];
    }
  }
  p.f_nodes = target.evaluate(p.nodes);
  return p;
}

/// J_{k,l} = d g(x_k) / d psi_l = d/d phi_l + d/d phi_{d-l}.
inline double reduced_derivative(const ReducedProblem& p, const std::vector<double>& grad, int l) {
  const double v = grad[static_cast<std::size_t>(l)];
  return l == p.d - l ? v : v + grad[static_cast<std::size_t>(p.d - l)];
}

}  // namespace

SymQspResult solve_symmetric_qsp(const poly::ChebSeries& target, const SymQspOptions& opts) {
  expects(target.parity() != poly::Parity::kNone,
          "symmetric QSP target must have definite parity");
  expects(target.max_abs_on(-1.0, 1.0) < 1.0, "symmetric QSP target must satisfy |f| < 1");

  const ReducedProblem p = make_problem(target);
  const auto m = static_cast<std::size_t>(p.m);
  SymQspResult res;

  // The response at the reduced nodes for `psi` (left in rows.ai) and its
  // largest gap to the target: one O(m d) pass.
  RowBlock rows(p.nodes);
  const auto evaluate = [&](const std::vector<double>& psi) {
    qsp_rows(phase_trig(full_phases(p, psi)), rows);
    // A NaN gap (a diverged step) must read as NaN, never as the best residual.
    double worst = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      const double gap = std::fabs(p.f_nodes[k] - rows.ai[k]);
      if (!(gap <= worst)) worst = gap;
    }
    return worst;
  };

  // --- Stage 1: fixed-point iteration on the coefficient map -------------
  std::vector<double> psi(m);
  for (std::size_t k = 0; k < m; ++k) psi[k] = p.c[k] / p.weight[k];
  double best_residual = evaluate(psi);
  std::vector<double> best_psi = psi;

  int stall = 0;
  for (int it = 0; it < opts.max_fpi_iterations; ++it) {
    // rows holds the response at psi; only the orders of the target's
    // parity enter the update.
    double delta = 0.0;
    for (std::size_t k = 0; k < m; ++k) {
      const double* row = &p.coeff_table[k * m];
      double fk = 0.0;
      for (std::size_t j = 0; j < m; ++j) fk += row[j] * rows.ai[j];
      const double gap = p.c[k] - fk;
      psi[k] += gap / p.weight[k];
      delta = std::fmax(delta, std::fabs(gap));
    }
    res.fpi_iterations = it + 1;
    const double r = evaluate(psi);
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
  std::vector<Pair> prefix;
  std::vector<double> grad;
  if (best_residual >= opts.tolerance && opts.enable_newton) {
    std::vector<double> gap(m);
    linalg::Matrix<double> J(m, m);
    for (int it = 0;; ++it) {
      const double r = evaluate(psi);
      if (r < best_residual) {
        best_residual = r;
        best_psi = psi;
      }
      if (r < opts.tolerance || it == opts.max_newton_iterations) break;
      for (std::size_t k = 0; k < m; ++k) gap[k] = p.f_nodes[k] - rows.ai[k];
      const auto trig = phase_trig(full_phases(p, psi));
      for (std::size_t k = 0; k < m; ++k) {
        response_gradient(trig, p.nodes[k], prefix, grad);
        for (int l = 0; l < p.m; ++l) {
          J(k, static_cast<std::size_t>(l)) = reduced_derivative(p, grad, l);
        }
      }
      const auto f = linalg::lu_factor(J);
      if (f.singular) break;
      const auto step = linalg::lu_solve(f, gap);
      for (std::size_t l = 0; l < m; ++l) psi[l] += step[l];
      res.newton_iterations = it + 1;
    }
    psi = best_psi;
    if (res.newton_iterations > 0) res.method = "newton";
    res.residual = best_residual;
  }

  // --- Stage 3: L-BFGS on the least-squares objective (rescue only) -------
  if (best_residual >= std::fmax(opts.tolerance, opts.lbfgs_threshold) &&
      opts.enable_lbfgs) {
    auto objective = [&](const std::vector<double>& psi_v, std::vector<double>& g_out) {
      const auto trig = phase_trig(full_phases(p, psi_v));
      g_out.assign(psi_v.size(), 0.0);
      double val = 0.0;
      for (std::size_t k = 0; k < m; ++k) {
        const double gap = response_gradient(trig, p.nodes[k], prefix, grad) - p.f_nodes[k];
        val += 0.5 * gap * gap;
        for (int l = 0; l < p.m; ++l) {
          g_out[static_cast<std::size_t>(l)] += gap * reduced_derivative(p, grad, l);
        }
      }
      return val;
    };
    LbfgsOptions lopts;
    lopts.max_iterations = opts.max_lbfgs_iterations;
    lopts.gradient_tolerance = 1e-14;
    const auto lr = lbfgs_minimize(objective, psi, lopts);
    const double r = evaluate(lr.x);
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
