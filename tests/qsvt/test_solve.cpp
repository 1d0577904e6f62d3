#include "qsvt/solve.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <vector>

#include "../support/exec_fixtures.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/statevector.hpp"
#include "qsvt/denormalize.hpp"
#include "stateprep/kp_tree.hpp"

namespace mpqls::qsvt {
namespace {

double direction_error(const linalg::Vector<double>& got, const linalg::Vector<double>& want) {
  // Directions are defined up to sign.
  linalg::Vector<double> w = want;
  const double n = linalg::nrm2(w);
  for (auto& v : w) v /= n;
  double plus = 0.0, minus = 0.0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    plus = std::fmax(plus, std::fabs(got[i] - w[i]));
    minus = std::fmax(minus, std::fabs(got[i] + w[i]));
  }
  return std::fmin(plus, minus);
}

TEST(QsvtSolve, MatrixBackendMatchesTrueSolutionDirection) {
  Xoshiro256 rng(21);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  QsvtOptions opts;
  opts.backend = Backend::kMatrixFunction;
  opts.eps_l = 1e-6;
  const auto ctx = prepare_qsvt_solver(A, opts);
  const auto out = qsvt_solve_direction(ctx, b);
  const auto x_true = linalg::lu_solve(A, b);
  EXPECT_LT(direction_error(out.direction, x_true), 1e-5);
  EXPECT_GT(out.success_probability, 0.0);
  EXPECT_GT(out.be_calls, 10u);
}

TEST(QsvtSolve, GateBackendMatchesMatrixBackend) {
  Xoshiro256 rng(22);
  const auto A = linalg::random_with_cond(rng, 4, 5.0);
  const auto b = linalg::random_unit_vector(rng, 4);

  QsvtOptions gate_opts;
  gate_opts.backend = Backend::kGateLevel;
  gate_opts.eps_l = 1e-4;
  const auto gate_ctx = prepare_qsvt_solver(A, gate_opts);
  const auto gate = qsvt_solve_direction(gate_ctx, b);

  QsvtOptions mat_opts = gate_opts;
  mat_opts.backend = Backend::kMatrixFunction;
  const auto mat_ctx = prepare_qsvt_solver(A, mat_opts);
  const auto mat = qsvt_solve_direction(mat_ctx, b);

  EXPECT_LT(direction_error(gate.direction, mat.direction), 1e-8);
  EXPECT_EQ(gate.be_calls, mat.be_calls);
}

TEST(QsvtSolve, GateBackendSolvesToEpsL) {
  Xoshiro256 rng(23);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  QsvtOptions opts;
  opts.backend = Backend::kGateLevel;
  opts.eps_l = 1e-3;
  const auto ctx = prepare_qsvt_solver(A, opts);
  EXPECT_LE(ctx.eps_l_effective, 1e-3 * 1.5);
  const auto out = qsvt_solve_direction(ctx, b);
  const auto x_true = linalg::lu_solve(A, b);
  EXPECT_LT(direction_error(out.direction, x_true), 3e-3);
}

TEST(QsvtSolve, SinglePrecisionBackendIsNoisierButClose) {
  Xoshiro256 rng(24);
  const auto A = linalg::random_with_cond(rng, 4, 5.0);
  const auto b = linalg::random_unit_vector(rng, 4);
  QsvtOptions opts;
  opts.backend = Backend::kGateLevel;
  opts.precision = QpuPrecision::kSingle;
  opts.eps_l = 1e-3;
  const auto ctx = prepare_qsvt_solver(A, opts);
  const auto out = qsvt_solve_direction(ctx, b);
  const auto x_true = linalg::lu_solve(A, b);
  // Single precision adds roundoff well below eps_l here.
  EXPECT_LT(direction_error(out.direction, x_true), 5e-3);
}

TEST(QsvtSolve, ShotNoiseScalesAsInverseSqrt) {
  Xoshiro256 rng(25);
  const auto A = linalg::random_with_cond(rng, 4, 3.0);
  const auto b = linalg::random_unit_vector(rng, 4);
  QsvtOptions opts;
  opts.backend = Backend::kMatrixFunction;
  opts.eps_l = 1e-8;
  const auto exact_ctx = prepare_qsvt_solver(A, opts);
  const auto exact = qsvt_solve_direction(exact_ctx, b);

  double err_small = 0.0, err_large = 0.0;
  for (std::uint64_t shots : {1000ull, 100000ull}) {
    QsvtOptions noisy = opts;
    noisy.shots = shots;
    noisy.seed = 99;
    const auto ctx = prepare_qsvt_solver(A, noisy);
    const auto out = qsvt_solve_direction(ctx, b);
    const double err = direction_error(out.direction, exact.direction);
    (shots == 1000 ? err_small : err_large) = err;
  }
  EXPECT_GT(err_small, err_large);
  EXPECT_LT(err_large, 0.02);
}

TEST(QsvtSolve, AnalyticPolynomialBackendAgrees) {
  Xoshiro256 rng(26);
  const auto A = linalg::random_with_cond(rng, 4, 4.0);
  const auto b = linalg::random_unit_vector(rng, 4);
  QsvtOptions opts;
  opts.backend = Backend::kMatrixFunction;
  opts.poly_method = PolyMethod::kAnalytic;
  opts.eps_l = 1e-5;
  const auto ctx = prepare_qsvt_solver(A, opts);
  const auto out = qsvt_solve_direction(ctx, b);
  const auto x_true = linalg::lu_solve(A, b);
  EXPECT_LT(direction_error(out.direction, x_true), 1e-4);
}

TEST(QsvtSolve, LcuEncodingMatchesDenseEncoding) {
  // Gate-level solve through the LCU-Pauli encoding must agree with the
  // dense-embedding solve: same polynomial pipeline, different circuit.
  Xoshiro256 rng(30);
  const auto A = linalg::random_with_cond(rng, 4, 4.0);
  const auto b = linalg::random_unit_vector(rng, 4);

  QsvtOptions dense_opts;
  dense_opts.backend = Backend::kGateLevel;
  dense_opts.eps_l = 1e-3;
  const auto dense_ctx = prepare_qsvt_solver(A, dense_opts);
  const auto dense = qsvt_solve_direction(dense_ctx, b);

  QsvtOptions lcu_opts = dense_opts;
  lcu_opts.encoding = EncodingKind::kLcuPauli;
  const auto lcu_ctx = prepare_qsvt_solver(A, lcu_opts);
  const auto lcu = qsvt_solve_direction(lcu_ctx, b);

  // The LCU's larger alpha inflates kappa_be, so its polynomial is deeper.
  EXPECT_GT(lcu_ctx.kappa_effective, dense_ctx.kappa_effective);
  EXPECT_LT(direction_error(lcu.direction, dense.direction), 1e-5);
  const auto x_true = linalg::lu_solve(A, b);
  EXPECT_LT(direction_error(lcu.direction, x_true), 5e-3);
}

TEST(QsvtSolve, TridiagonalEncodingSolvesPoisson) {
  // Fully gate-native pipeline: banded LCU encoding with carry adders,
  // projector gadgets over its 4+carry ancillas, KP state preparation.
  const auto T = linalg::dirichlet_laplacian(8);
  linalg::Vector<double> b(8);
  for (std::size_t j = 0; j < 8; ++j) b[j] = std::sin(M_PI * (j + 1) / 9.0);

  QsvtOptions opts;
  opts.backend = Backend::kGateLevel;
  opts.encoding = EncodingKind::kTridiagonal;
  opts.eps_l = 5e-2;
  const auto ctx = prepare_qsvt_solver(T, opts);
  EXPECT_EQ(ctx.be.method, "tridiagonal-lcu");
  // kappa_be = alpha/sigma_min = 5/lambda_min > kappa(T).
  EXPECT_GT(ctx.kappa_effective, linalg::dirichlet_laplacian_cond(8));
  const auto out = qsvt_solve_direction(ctx, b);
  const auto x_true = linalg::lu_solve(T, b);
  EXPECT_LT(direction_error(out.direction, x_true), 0.1);
}

TEST(QsvtSolve, TridiagonalEncodingRejectsOtherMatrices) {
  Xoshiro256 rng(33);
  const auto A = linalg::random_with_cond(rng, 8, 3.0);
  QsvtOptions opts;
  opts.encoding = EncodingKind::kTridiagonal;
  EXPECT_THROW(prepare_qsvt_solver(A, opts), contract_violation);
}

TEST(QsvtSolve, DirectStatePrepMatchesPreparationCircuit) {
  // The clean gate-level path embeds rhs_unit directly into the register;
  // the KP-tree circuit applied to |0…0> must produce the same state, so
  // the two pipelines must agree. This reference interprets SP(b), then
  // replays the context's program on that state as a one-lane panel.
  Xoshiro256 rng(34);
  const auto A = linalg::random_with_cond(rng, 8, 6.0);
  auto b = linalg::random_unit_vector(rng, 8);  // random signs included
  QsvtOptions opts;
  opts.backend = Backend::kGateLevel;
  opts.eps_l = 1e-3;
  const auto ctx = prepare_qsvt_solver(A, opts);
  const auto direct = qsvt_solve_direction(ctx, b);

  linalg::Vector<double> unit = b;
  const double nb = linalg::nrm2(unit);
  for (auto& v : unit) v /= nb;
  const auto sp = stateprep::kp_state_preparation(unit);
  const QsvtCircuit& qc = *ctx.circuit;
  qsim::Statevector<double> sv(qc.circuit.num_qubits());
  sv.apply(sp.circuit);
  test::replay_one_lane(ctx.programs->get<double>(), sv);
  qsim::Circuit flip(qc.circuit.num_qubits());
  flip.x(qc.realpart_qubit);
  sv.apply(flip);
  auto zeros = qc.zero_postselect();
  zeros.push_back(qc.realpart_qubit);
  sv.postselect_zero(zeros);
  linalg::Vector<double> want(b.size());
  for (std::size_t i = 0; i < want.size(); ++i) want[i] = sv[i].real();
  const double nw = linalg::nrm2(want);
  for (auto& v : want) v /= nw;

  ASSERT_EQ(direct.direction.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_NEAR(direct.direction[i], want[i], 1e-10) << "component " << i;
  }
  // Telemetry still counts the SP gates the QPU would run: the context's
  // per-matrix constant equals the real circuit's size.
  EXPECT_EQ(ctx.sp_circuit_gates, sp.circuit.size());
  EXPECT_EQ(direct.circuit_gates, qc.circuit.size() + sp.circuit.size());
}

TEST(QsvtSolve, PanelBatchMatchesOneLaneDirections) {
  Xoshiro256 rng(35);
  const auto A = linalg::random_with_cond(rng, 8, 6.0);
  std::vector<linalg::Vector<double>> rhs;
  for (int k = 0; k < 5; ++k) rhs.push_back(linalg::random_unit_vector(rng, 8));
  QsvtOptions opts;
  opts.backend = Backend::kGateLevel;
  opts.eps_l = 1e-3;
  const auto ctx = prepare_qsvt_solver(A, opts);

  PanelExecStats stats;
  const auto batch =
      qsvt_solve_directions(ctx, std::span<const linalg::Vector<double>>(rhs), &stats);
  EXPECT_EQ(stats.panels, 1u);
  EXPECT_EQ(stats.lanes, 5u);
  ASSERT_EQ(batch.size(), rhs.size());
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const auto one = qsvt_solve_direction(ctx, rhs[k]);
    ASSERT_EQ(batch[k].direction.size(), one.direction.size());
    for (std::size_t i = 0; i < one.direction.size(); ++i) {
      EXPECT_NEAR(batch[k].direction[i], one.direction[i], 1e-10)
          << "rhs " << k << " component " << i;
    }
    EXPECT_NEAR(batch[k].success_probability, one.success_probability, 1e-12);
    EXPECT_EQ(batch[k].be_calls, one.be_calls);
    EXPECT_EQ(batch[k].circuit_gates, one.circuit_gates);
  }
}

TEST(QsvtSolve, PanelBatchSinglePrecision) {
  Xoshiro256 rng(36);
  const auto A = linalg::random_with_cond(rng, 4, 4.0);
  std::vector<linalg::Vector<double>> rhs;
  for (int k = 0; k < 3; ++k) rhs.push_back(linalg::random_unit_vector(rng, 4));
  QsvtOptions opts;
  opts.backend = Backend::kGateLevel;
  opts.precision = QpuPrecision::kSingle;
  opts.eps_l = 1e-3;
  const auto ctx = prepare_qsvt_solver(A, opts);

  PanelExecStats stats;
  const auto batch =
      qsvt_solve_directions(ctx, std::span<const linalg::Vector<double>>(rhs), &stats);
  EXPECT_EQ(stats.panels, 1u);
  EXPECT_EQ(stats.lanes, 3u);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const auto one = qsvt_solve_direction(ctx, rhs[k]);
    for (std::size_t i = 0; i < one.direction.size(); ++i) {
      EXPECT_NEAR(batch[k].direction[i], one.direction[i], 1e-4)
          << "rhs " << k << " component " << i;
    }
  }
}

TEST(QsvtSolve, MatrixBackendSolvesPerRhsAndSingletonsRunOneLanePanels) {
  Xoshiro256 rng(37);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  std::vector<linalg::Vector<double>> rhs;
  for (int k = 0; k < 3; ++k) rhs.push_back(linalg::random_unit_vector(rng, 8));

  QsvtOptions opts;
  opts.backend = Backend::kMatrixFunction;
  opts.eps_l = 1e-4;
  const auto ctx = prepare_qsvt_solver(A, opts);
  PanelExecStats stats;
  const auto batch =
      qsvt_solve_directions(ctx, std::span<const linalg::Vector<double>>(rhs), &stats);
  EXPECT_EQ(stats.panels, 0u);  // per-RHS arm: no panel sweeps
  EXPECT_EQ(stats.lanes, 0u);
  for (std::size_t k = 0; k < rhs.size(); ++k) {
    const auto one = qsvt_solve_direction(ctx, rhs[k]);
    for (std::size_t i = 0; i < one.direction.size(); ++i) {
      EXPECT_EQ(batch[k].direction[i], one.direction[i]);  // same code path: bitwise
    }
  }

  QsvtOptions gate_opts;
  gate_opts.backend = Backend::kGateLevel;
  gate_opts.eps_l = 1e-3;
  const auto gate_ctx = prepare_qsvt_solver(A, gate_opts);
  PanelExecStats gate_stats;
  const auto single = qsvt_solve_directions(
      gate_ctx, std::span<const linalg::Vector<double>>(rhs.data(), 1), &gate_stats);
  EXPECT_EQ(gate_stats.panels, 1u);  // one lane is still a panel sweep
  EXPECT_EQ(gate_stats.lanes, 1u);
  const auto one = qsvt_solve_direction(gate_ctx, rhs[0]);
  for (std::size_t i = 0; i < one.direction.size(); ++i) {
    EXPECT_EQ(single[0].direction[i], one.direction[i]);
  }
}

TEST(Denormalize, BrentMatchesClosedForm) {
  Xoshiro256 rng(27);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  const auto eta = linalg::random_unit_vector(rng, 8);
  const auto brent = fit_step_brent(A, {}, eta, b);
  const auto closed = fit_step_closed_form(A, {}, eta, b);
  // Brent minimizes the (exactly quadratic) objective to x-resolution
  // ~sqrt(machine eps): agreement beyond ~1e-8 on mu is not achievable by a
  // function-value-only minimizer. The residual norms agree much tighter
  // because the objective is flat at the minimum.
  EXPECT_NEAR(brent.mu, closed.mu, 1e-7);
  EXPECT_NEAR(brent.residual_norm, closed.residual_norm, 1e-9);
}

TEST(Denormalize, RecoversExactNorm) {
  // If eta is the exact solution direction, mu recovers ||x|| and the
  // residual drops to ~0.
  Xoshiro256 rng(28);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  const auto x = linalg::random_unit_vector(rng, 8);
  linalg::Vector<double> x_scaled = x;
  for (auto& v : x_scaled) v *= 3.7;
  const auto b = linalg::matvec(A, x_scaled);
  const auto fit = fit_step_brent(A, {}, x, b);
  EXPECT_NEAR(fit.mu, 3.7, 1e-8);
  EXPECT_LT(fit.residual_norm, 1e-8);
}

TEST(Denormalize, WithBaseVectorMinimizesStep) {
  Xoshiro256 rng(29);
  const auto A = linalg::random_with_cond(rng, 4, 5.0);
  const auto b = linalg::random_unit_vector(rng, 4);
  const auto x0 = linalg::random_unit_vector(rng, 4);
  const auto eta = linalg::random_unit_vector(rng, 4);
  const auto fit = fit_step_brent(A, x0, eta, b);
  // Perturbing mu must not decrease the residual.
  for (double d : {-1e-3, 1e-3}) {
    linalg::Vector<double> x = x0;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += (fit.mu + d) * eta[i];
    EXPECT_GE(linalg::nrm2(linalg::residual(A, x, b)), fit.residual_norm - 1e-12);
  }
}

}  // namespace
}  // namespace mpqls::qsvt
