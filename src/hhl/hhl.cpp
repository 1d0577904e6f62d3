#include "hhl/hhl.hpp"

#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/jacobi_eig.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/synth/qft.hpp"
#include "qsim/synth/ucr.hpp"
#include "qsvt/denormalize.hpp"
#include "stateprep/kp_tree.hpp"

namespace mpqls::hhl {

namespace {

using c64 = std::complex<double>;

// Dense payload for U^p = V diag(e^{i lambda_j t p}) V^T.
linalg::Matrix<c64> evolution_power(const linalg::SymmetricEig& eig, double t, double power) {
  const std::size_t N = eig.values.size();
  linalg::Matrix<c64> U(N, N);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      c64 acc{};
      for (std::size_t k = 0; k < N; ++k) {
        const c64 phase = std::exp(c64(0, eig.values[k] * t * power));
        acc += eig.vectors(i, k) * phase * eig.vectors(j, k);
      }
      U(i, j) = acc;
    }
  }
  return U;
}

}  // namespace

HhlResult hhl_solve(const linalg::Matrix<double>& A, const linalg::Vector<double>& b,
                    const HhlOptions& options) {
  const std::size_t N = A.rows();
  expects(N == A.cols() && N == b.size(), "hhl: dimension mismatch");
  expects(std::has_single_bit(N), "hhl: dimension must be 2^n");
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = i + 1; j < N; ++j) {
      expects(std::fabs(A(i, j) - A(j, i)) < 1e-12, "hhl: matrix must be symmetric");
    }
  }
  const auto n = static_cast<std::uint32_t>(std::countr_zero(N));
  const std::uint32_t m = options.clock_qubits;
  expects(m >= 2 && m <= 12, "hhl: clock_qubits in [2, 12]");

  const auto eig = linalg::jacobi_eigensymmetric(A);
  double lambda_max = 0.0, lambda_min = 1e300;
  for (double l : eig.values) {
    lambda_max = std::fmax(lambda_max, std::fabs(l));
    lambda_min = std::fmin(lambda_min, std::fabs(l));
  }
  expects(lambda_min > 0.0, "hhl: singular matrix");

  // Map the spectrum into the signed clock window: lambda*t/(2pi) in
  // (-1/2, 1/2) with a one-bin margin.
  const double bins = static_cast<double>(std::size_t{1} << m);
  const double t = (options.evolution_time > 0.0)
                       ? options.evolution_time
                       : 2.0 * M_PI * (0.5 - 1.0 / bins) / lambda_max;
  const double C = (options.rotation_constant > 0.0) ? options.rotation_constant
                                                     : 0.9 * lambda_min;

  // Register layout: data [0,n), clock [n, n+m), rotation ancilla n+m.
  const std::uint32_t rot = n + m;
  const std::uint32_t width = rot + 1;
  qsim::Circuit c(width);
  std::vector<std::uint32_t> clock(m);
  for (std::uint32_t k = 0; k < m; ++k) clock[k] = n + k;
  std::vector<std::uint32_t> data_targets(n);
  for (std::uint32_t q = 0; q < n; ++q) data_targets[q] = q;

  // State preparation of b on the data register.
  const auto sp = stateprep::kp_state_preparation(b);
  c.append(sp.circuit, data_targets.empty() ? std::vector<std::uint32_t>{0} : data_targets);

  // Forward QPE.
  std::uint64_t oracle_gates = 0;
  qsim::Circuit qpe(width);
  for (std::uint32_t k = 0; k < m; ++k) qpe.h(clock[k]);
  for (std::uint32_t k = 0; k < m; ++k) {
    qsim::Gate g;
    g.kind = qsim::GateKind::kUnitary;
    g.targets = data_targets;
    g.controls = {clock[k]};
    g.matrix = std::make_shared<const linalg::Matrix<c64>>(
        evolution_power(eig, t, static_cast<double>(std::size_t{1} << k)));
    qpe.push(g);
    ++oracle_gates;
  }
  append_iqft(qpe, clock);
  c.append(qpe);

  // Eigenvalue-inversion rotation: clock value v (signed) encodes
  // lambda(v) = 2 pi v~ / (2^m t).
  std::vector<double> angles(std::size_t{1} << m, 0.0);
  for (std::size_t v = 1; v < angles.size(); ++v) {
    const double signed_v = (v < angles.size() / 2)
                                ? static_cast<double>(v)
                                : static_cast<double>(v) - bins;
    const double lambda = 2.0 * M_PI * signed_v / (bins * t);
    const double ratio = std::fmax(-1.0, std::fmin(1.0, C / lambda));
    angles[v] = 2.0 * std::asin(ratio);
  }
  qsim::append_ucry(c, clock, rot, angles);

  // Uncompute QPE.
  c.append(qpe.dagger());

  // Compile (fusing the QPE ladders) and replay on a one-lane panel, then
  // postselect {rotation = 1, clock = 0}.
  qsim::exec::StatePanel<double> panel(width, 1);
  qsim::exec::PanelExecutor<double>().run(qsim::exec::compile<double>(c), panel);
  const double p_success = panel.postselect(clock, {rot})[0];
  const std::size_t rot_bit = std::size_t{1} << rot;

  HhlResult out;
  out.direction.resize(N);
  for (std::size_t i = 0; i < N; ++i) out.direction[i] = panel.amp(i | rot_bit, 0).real();
  const double nrm = linalg::nrm2(out.direction);
  expects(nrm > 0.0, "hhl: zero-probability postselection");
  for (auto& v : out.direction) v /= nrm;

  // De-normalize classically (same Remark 2 machinery as the QSVT solver).
  const auto fit = qsvt::fit_step_closed_form(A, {}, out.direction, b);
  out.x.resize(N);
  for (std::size_t i = 0; i < N; ++i) out.x[i] = fit.mu * out.direction[i];
  out.success_probability = p_success;
  out.total_qubits = width;
  out.circuit_gates = c.size();
  out.oracle_gates = oracle_gates * 2;  // forward + uncompute
  return out;
}

HhlResult hhl_solve_general(const linalg::Matrix<double>& A, const linalg::Vector<double>& b,
                            const HhlOptions& options) {
  const std::size_t N = A.rows();
  // Hermitian dilation: [[0, A], [A^T, 0]] [y; x] = [b; 0] has solution
  // y = 0, x = A^{-1} b.
  linalg::Matrix<double> D(2 * N, 2 * N);
  for (std::size_t i = 0; i < N; ++i) {
    for (std::size_t j = 0; j < N; ++j) {
      D(i, N + j) = A(i, j);
      D(N + i, j) = A(j, i);
    }
  }
  linalg::Vector<double> rhs(2 * N, 0.0);
  for (std::size_t i = 0; i < N; ++i) rhs[i] = b[i];
  const auto dilated = hhl_solve(D, rhs, options);

  HhlResult out = dilated;
  out.x.assign(N, 0.0);
  out.direction.assign(N, 0.0);
  for (std::size_t i = 0; i < N; ++i) {
    out.x[i] = dilated.x[N + i];
    out.direction[i] = dilated.direction[N + i];
  }
  const double nrm = linalg::nrm2(out.direction);
  if (nrm > 0.0) {
    for (auto& v : out.direction) v /= nrm;
  }
  return out;
}

}  // namespace mpqls::hhl
