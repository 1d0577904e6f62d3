#include "qsvt/solve.hpp"

#include <bit>
#include <cmath>

#include "common/sampling.hpp"

#include "blockenc/dense_embedding.hpp"
#include "blockenc/lcu.hpp"
#include "blockenc/tridiagonal.hpp"
#include "common/contracts.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/blas.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/statevector.hpp"
#include "stateprep/kp_tree.hpp"

namespace mpqls::qsvt {

QsvtSolverContext prepare_qsvt_solver(linalg::Matrix<double> A, QsvtOptions options) {
  expects(A.rows() == A.cols(), "qsvt solver: square matrix required");
  QsvtSolverContext ctx;
  ctx.options = options;

  ctx.A = std::move(A);
  ctx.svd = linalg::jacobi_svd(ctx.A);
  expects(ctx.svd.sigma.back() > 0.0, "qsvt solver: singular matrix");

  // Block-encode A^T. The encoded singular values are sigma_i / alpha, so
  // the inversion polynomial's domain is [1/kappa_be, 1] with
  // kappa_be = alpha / sigma_min — which exceeds kappa(A) whenever the
  // encoding's subnormalization alpha is above ||A||_2 (LCU, tridiagonal).
  switch (options.encoding) {
    case EncodingKind::kDenseEmbedding: {
      // A^T = V Sigma U^T: encode from A's factors, swapped, instead of
      // decomposing A^T again. Only the matrix-function backend reads the
      // singular vectors after prepare, so a gate-level context hands them
      // over rather than copying them.
      linalg::Svd transposed;
      transposed.sigma = ctx.svd.sigma;
      if (options.backend == Backend::kMatrixFunction) {
        transposed.U = ctx.svd.V;
        transposed.V = ctx.svd.U;
      } else {
        transposed.U = std::move(ctx.svd.V);
        transposed.V = std::move(ctx.svd.U);
      }
      ctx.be = blockenc::dense_embedding(linalg::transpose(ctx.A), transposed);
      break;
    }
    case EncodingKind::kLcuPauli:
      ctx.be = blockenc::lcu_block_encoding(linalg::transpose(ctx.A));
      break;
    case EncodingKind::kTridiagonal: {
      const auto expected = linalg::dirichlet_laplacian(ctx.A.rows());
      expects(linalg::max_abs_diff(ctx.A, expected) < 1e-12,
              "tridiagonal encoding requires A = tridiag(-1,2,-1)");
      // tridiag(-1,2,-1) is symmetric: encoding A encodes A^T.
      ctx.be = blockenc::tridiagonal_block_encoding(
          static_cast<std::uint32_t>(std::countr_zero(ctx.A.rows())));
      break;
    }
  }

  const double kappa_be_measured = ctx.be.alpha / ctx.svd.sigma.back();
  const double kappa_req = (options.kappa > 0.0)
                               ? options.kappa * ctx.be.alpha / ctx.svd.sigma.front()
                               : kappa_be_measured;
  ctx.kappa_effective = kappa_req * options.kappa_margin;

  // Inverse polynomial at the requested low accuracy eps_l.
  ctx.inverse = (options.poly_method == PolyMethod::kAnalytic)
                    ? poly::inverse_poly_analytic(ctx.kappa_effective, options.eps_l)
                    : poly::inverse_poly_interpolated(ctx.kappa_effective, options.eps_l);

  // Enforce |P| <= 0.9 on [-1,1] by rescaling. The paper multiplies by a
  // rectangle polynomial instead (Section II-A4); for a direction-based
  // readout the two are equivalent — a known scalar factor s drops out of
  // x/||x|| and only costs success probability (s^2) — while rescaling
  // adds no degree and no transition-resolution error. The rectangle
  // window lives in poly/rect_window and is exercised by its own tests and
  // the polynomial ablation bench. The bump of the smoothed inverse below
  // 1/kappa tops out near sqrt(log(kappa/eps))/2, so s stays O(1).
  ctx.target = ctx.inverse.series;
  const double max_abs = ctx.inverse.max_abs;
  ctx.poly_scale = (max_abs > 0.9) ? 0.9 / max_abs : 1.0;
  ctx.target = ctx.target.scaled(ctx.poly_scale).parity_projected(poly::Parity::kOdd);

  // Measured polynomial accuracy in the units of Theorem III.1's eps_l:
  // max 2k|P - 1/(2kx)| over the domain, already measured on the unscaled
  // series by the fit.
  ctx.eps_l_effective = ctx.inverse.achieved_error;

  if (options.backend == Backend::kGateLevel) {
    ctx.phases = qsp::solve_symmetric_qsp(ctx.target, options.qsp_options);
    expects(ctx.phases.converged, "qsvt solver: QSP phase finding failed");
    ctx.circuit = build_qsvt_circuit(ctx.be, ctx.phases.phases);
    // Lower + fuse the circuit once into a precision-agnostic IR. Like the
    // circuit itself this is a one-off synthesis cost amortized across
    // every right-hand side served from this context; the per-tier
    // Program<T> specializations hang off the shared IR and materialize
    // lazily, on the first replay of their tier, for every precision: a
    // context holds only the tiers it has run, and the adaptive loop hops
    // precisions without recompiling.
    {
      Timer timer;
      auto ir = qsim::exec::lower_and_fuse(ctx.circuit->circuit);
      ir.stats.compile_seconds = timer.seconds();
      ctx.programs = std::make_shared<qsim::exec::ProgramSet>(std::move(ir));
    }
    // The KP-tree preparation emits the same gate structure for every
    // vector of this length (only the angles differ), so its gate count is
    // a per-matrix constant: count it once on a basis vector and let the
    // clean path report it without rebuilding SP(rhs) per solve.
    linalg::Vector<double> e0(ctx.A.rows(), 0.0);
    e0[0] = 1.0;
    ctx.sp_circuit_gates = stateprep::kp_state_preparation(e0).circuit.size();
    // Gate-level solves replay the programs; only the matrix-function
    // backend reads the singular vectors, so a cached gate-level context
    // does not keep them.
    ctx.svd.U = {};
    ctx.svd.V = {};
  }
  return ctx;
}

std::shared_ptr<const QsvtSolverContext> prepare_qsvt_solver_shared(linalg::Matrix<double> A,
                                                                    QsvtOptions options) {
  return std::make_shared<const QsvtSolverContext>(
      prepare_qsvt_solver(std::move(A), std::move(options)));
}

QpuPrecision resolve_tier(QpuPrecision precision) {
  switch (precision) {
    case QpuPrecision::kSingle:
    case QpuPrecision::kHalf:
      return QpuPrecision::kSingle;
    default:
      return QpuPrecision::kDouble;
  }
}

QpuPrecision resolve_tier(const QsvtSolverContext& ctx, std::optional<QpuPrecision> tier) {
  return resolve_tier(tier.value_or(ctx.options.precision));
}

namespace {

linalg::Vector<double> normalized(const linalg::Vector<double>& v) {
  const double n = linalg::nrm2(v);
  expects(n > 0.0, "qsvt solve: zero right-hand side");
  linalg::Vector<double> out = v;
  for (auto& x : out) x /= n;
  return out;
}

// Shot-noise model: estimate |amp_i| from a multinomial sample and attach
// the exact sign (sign recovery is a separate Hadamard-test protocol whose
// cost is part of the O(1/eps^2) sampling budget; see DESIGN.md).
void apply_shot_noise(linalg::Vector<double>& direction, std::uint64_t shots,
                      std::uint64_t seed) {
  if (shots == 0) return;
  Xoshiro256 rng(seed);
  // One cumulative-distribution pass held in a reusable handle, O(log n)
  // binary search per shot (the per-shot linear scan used to dominate
  // large multi-shot readouts).
  std::vector<double> cdf(direction.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < direction.size(); ++i) {
    acc += direction[i] * direction[i];
    cdf[i] = acc;
  }
  const CdfSampler sampler(std::move(cdf));
  std::vector<std::uint64_t> hist(direction.size(), 0);
  for (const std::size_t outcome : sampler.draw(rng, shots)) ++hist[outcome];
  for (std::size_t i = 0; i < direction.size(); ++i) {
    const double mag = std::sqrt(static_cast<double>(hist[i]) / static_cast<double>(shots));
    direction[i] = std::copysign(mag, direction[i]);
  }
  const double n = linalg::nrm2(direction);
  if (n > 0.0) {
    for (auto& x : direction) x /= n;
  }
}

bool noisy(const QsvtOptions& options) {
  return options.noise.depolarizing_per_gate > 0.0 || options.noise.damping_per_gate > 0.0;
}

/// One noise trajectory through the gate interpreter: the only gate-level
/// solve that does not replay the compiled program, because trajectories
/// inject errors between gates — including those of the real SP(rhs)
/// circuit, which the clean path replaces with a direct embedding.
template <typename T>
QsvtSolveOutcome run_noisy_trajectory(const QsvtSolverContext& ctx,
                                      const linalg::Vector<double>& rhs_unit) {
  const QsvtCircuit& qc = *ctx.circuit;
  const std::uint32_t width = qc.circuit.num_qubits();
  const std::size_t N = rhs_unit.size();

  qsim::Statevector<T> sv(width);
  const auto sp = stateprep::kp_state_preparation(rhs_unit);
  const std::uint64_t circuit_gates = qc.circuit.size() + sp.circuit.size();
  // Mix the right-hand side into the seed so each refinement iteration
  // draws an independent trajectory.
  std::uint64_t h = ctx.options.seed;
  for (double v : rhs_unit) {
    std::uint64_t bits;
    __builtin_memcpy(&bits, &v, 8);
    h = (h ^ bits) * 0x100000001B3ull;
  }
  Xoshiro256 noise_rng(h);
  apply_noisy(sv, sp.circuit, ctx.options.noise, noise_rng);
  apply_noisy(sv, qc.circuit, ctx.options.noise, noise_rng);

  // Postselect: BE ancillas and signal at |0>, real-part qubit at |1>
  // (flip it so one postselect_zero covers everything).
  qsim::Circuit flip(width);
  flip.x(qc.realpart_qubit);
  sv.apply(flip);
  auto zeros = qc.zero_postselect();
  zeros.push_back(qc.realpart_qubit);
  if (sv.probability_all_zero(zeros) <= 1e-300) {
    // The trajectory destroyed the postselection branch entirely: the
    // hardware analogue is "all shots rejected". Report a no-op solve
    // (direction = rhs, zero success probability); the refinement loop
    // simply makes no progress this iteration.
    QsvtSolveOutcome failed;
    failed.direction = rhs_unit;
    failed.success_probability = 0.0;
    failed.be_calls = qc.be_calls;
    failed.circuit_gates = circuit_gates;
    return failed;
  }
  const double p_success = sv.postselect_zero(zeros);

  // Trajectories inject Y/Z paulis, so the postselected state need not be
  // real: the direction is its real-part projection.
  QsvtSolveOutcome out;
  out.direction.resize(N);
  for (std::size_t i = 0; i < N; ++i) out.direction[i] = static_cast<double>(sv[i].real());
  const double n = linalg::nrm2(out.direction);
  expects(n > 0.0, "qsvt gate backend: zero-probability postselection");
  for (auto& x : out.direction) x /= n;

  out.success_probability = p_success;
  out.be_calls = qc.be_calls;
  out.circuit_gates = circuit_gates;
  return out;
}

QsvtSolveOutcome run_matrix_function(const QsvtSolverContext& ctx,
                                     const linalg::Vector<double>& rhs_unit) {
  // Ideal QSVT channel: A^T = V S W^T (from A = W S V^T), so the QSVT of
  // the encoded A^T/alpha applies  W P(S/alpha) V^T ... careful with
  // factors: QSVT_P(A^T) = W P(Sigma) V^T? For odd P and A^T with SVD
  // A^T = V Sigma W^T, QSVT gives V ... — we implement x ~ A^{-1} rhs
  // directly in the SVD basis: x = V Sigma^{-1}-ish W^T rhs with
  // Sigma^{-1}-ish = 2 kappa P(sigma/alpha)-style. Only the direction
  // matters here.
  const auto& svd = ctx.svd;  // A = U Sigma V^T (linalg names: U, sigma, V)
  const std::size_t N = rhs_unit.size();
  const double alpha = ctx.be.alpha;

  // w = U^T rhs; y_i = P(sigma_i / alpha) * w_i; x = V y. Both products
  // go through the blas gemv kernels, which traverse the row-major
  // matrices row by row (the hand-rolled loops this replaces strode down
  // columns, a cache miss per element at service sizes).
  linalg::Vector<double> w = linalg::matvec_transposed(svd.U, rhs_unit);
  double p_mass = 0.0;
  for (std::size_t i = 0; i < N; ++i) {
    const double px = ctx.target.evaluate(svd.sigma[i] / alpha);
    w[i] *= px;
    p_mass += w[i] * w[i];
  }
  QsvtSolveOutcome out;
  out.direction = linalg::matvec(svd.V, w);
  const double n = linalg::nrm2(out.direction);
  expects(n > 0.0, "qsvt matrix backend: zero result");
  for (auto& x : out.direction) x /= n;
  out.success_probability = p_mass;  // || s P(Sigma/alpha) U^T rhs ||^2
  out.be_calls = static_cast<std::uint64_t>(ctx.target.degree());
  out.circuit_gates = 0;
  return out;
}

/// Every clean gate-level solve: each RHS is embedded into its own lane
/// (the KP-tree circuit applied to |0…0> is exactly that embedding, so no
/// SP(rhs) is synthesized per solve), the cached program is replayed once
/// over the panel, and each lane is post-selected and extracted.
template <typename T>
std::vector<QsvtSolveOutcome> run_gate_level_panel(
    const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs) {
  const QsvtCircuit& qc = *ctx.circuit;
  const std::uint32_t width = qc.circuit.num_qubits();
  const std::size_t N = ctx.A.rows();
  const std::size_t B = rhs.size();

  qsim::exec::StatePanel<T> panel(width, B);
  for (std::size_t lane = 0; lane < B; ++lane) {
    expects(rhs[lane]->size() == N, "qsvt panel: dimension mismatch");
    panel.load_lane_real(lane, normalized(*rhs[lane]));
  }
  qsim::exec::PanelExecutor<T>{}.run(ctx.programs->get<T>(), panel);

  // Postselect every lane at once: BE ancillas and signal at |0>, the
  // real-part qubit at |1>.
  const auto zeros = qc.zero_postselect();
  const auto probs = panel.postselect(zeros, {qc.realpart_qubit});
  const std::size_t rp_bit = std::size_t{1} << qc.realpart_qubit;

  std::vector<QsvtSolveOutcome> out(B);
  for (std::size_t lane = 0; lane < B; ++lane) {
    auto& o = out[lane];
    o.direction.resize(N);
    double imag_mass = 0.0;
    for (std::size_t i = 0; i < N; ++i) {
      const auto a = panel.amp(i | rp_bit, lane);
      o.direction[i] = a.real();
      imag_mass += a.imag() * a.imag();
    }
    // For a real block-encoding the postselected state is real; anything
    // else signals a convention bug.
    ensures(imag_mass < 1e-6, "qsvt panel backend: unexpected imaginary amplitudes");
    const double n = linalg::nrm2(o.direction);
    expects(n > 0.0, "qsvt panel backend: zero-probability postselection");
    for (auto& x : o.direction) x /= n;
    o.success_probability = probs[lane];
    o.be_calls = qc.be_calls;
    o.circuit_gates = qc.circuit.size() + ctx.sp_circuit_gates;
  }
  return out;
}

}  // namespace

const qsim::exec::ProgramStats* compiled_program_stats(const QsvtSolverContext& ctx) {
  return ctx.programs ? &ctx.programs->ir().stats : nullptr;
}

QsvtSolveOutcome qsvt_solve_direction(const QsvtSolverContext& ctx,
                                      const linalg::Vector<double>& rhs) {
  return qsvt_solve_direction(ctx, rhs, resolve_tier(ctx, std::nullopt));
}

QsvtSolveOutcome qsvt_solve_direction(const QsvtSolverContext& ctx,
                                      const linalg::Vector<double>& rhs, QpuPrecision tier) {
  expects(tier != QpuPrecision::kAdaptive, "qsvt solve: tier must be a concrete precision");
  return std::move(qsvt_solve_directions(ctx, {&rhs}, nullptr, tier)[0]);
}

std::vector<QsvtSolveOutcome> qsvt_solve_directions(
    const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs,
    PanelExecStats* stats, std::optional<QpuPrecision> tier) {
  expects(!rhs.empty(), "qsvt_solve_directions: at least one right-hand side");
  const QpuPrecision t = resolve_tier(ctx, tier);
  const bool gate_level = ctx.options.backend == Backend::kGateLevel;
  std::vector<QsvtSolveOutcome> out;
  if (gate_level && !noisy(ctx.options)) {
    out = t == QpuPrecision::kSingle ? run_gate_level_panel<float>(ctx, rhs)
                                     : run_gate_level_panel<double>(ctx, rhs);
    if (stats) {
      stats->panels += 1;
      stats->lanes += rhs.size();
    }
  } else {
    // Noise trajectories and the matrix-function backend solve one
    // right-hand side at a time.
    out.reserve(rhs.size());
    for (const auto* b : rhs) {
      const auto unit = normalized(*b);
      out.push_back(!gate_level ? run_matrix_function(ctx, unit)
                    : t == QpuPrecision::kSingle ? run_noisy_trajectory<float>(ctx, unit)
                                                 : run_noisy_trajectory<double>(ctx, unit));
    }
  }
  for (auto& o : out) apply_shot_noise(o.direction, ctx.options.shots, ctx.options.seed);
  return out;
}

std::vector<QsvtSolveOutcome> qsvt_solve_directions(const QsvtSolverContext& ctx,
                                                    std::span<const linalg::Vector<double>> rhs,
                                                    PanelExecStats* stats,
                                                    std::optional<QpuPrecision> tier) {
  std::vector<const linalg::Vector<double>*> ptrs;
  ptrs.reserve(rhs.size());
  for (const auto& b : rhs) ptrs.push_back(&b);
  return qsvt_solve_directions(ctx, ptrs, stats, tier);
}

}  // namespace mpqls::qsvt
