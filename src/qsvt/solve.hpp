// QSVT linear-solver engine: prepares the inversion polynomial, the QSP
// phases and the block-encoding once (they are reused across all
// refinement iterations — the paper's Section III-A point about circuit
// synthesis being a one-off cost), then answers normalized solves
// A x ~ rhs, returning the solution *direction* (a unit vector, exactly
// what sampling a quantum state yields; Remark 2).
//
// Two interchangeable backends:
//  * kGateLevel — builds U_Phi as a circuit, compiles it once, and replays
//    it on every right-hand side embedded as SP(rhs)|0> (a StatePanel
//    lane; single or double storage), postselecting ancillas. Noise
//    trajectories instead run SP(rhs) + U_Phi through the gate
//    interpreter.
//  * kMatrixFunction — applies the same polynomial directly to the
//    singular values (the ideal QSVT channel). Used for large kappa where
//    the paper switches to estimated angles [32]; see DESIGN.md
//    substitution #2.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "blockenc/block_encoding.hpp"
#include "common/rng.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/matrix.hpp"
#include "poly/inverse_poly.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/exec/program.hpp"
#include "qsim/exec/program_set.hpp"
#include "qsim/noise.hpp"
#include "qsp/symmetric_qsp.hpp"
#include "qsvt/qsvt_circuit.hpp"

namespace mpqls::qsvt {

enum class Backend { kGateLevel, kMatrixFunction };
/// QPU statevector precision. The enumerators are wire-encoded values
/// (append only). Two tiers run: kSingle and kDouble. kHalf is a retired
/// tier that stays only as a value a request may still name; it runs the
/// single tier (see resolve_tier). kAdaptive is not a tier: the refinement
/// loop starts each lane on single and escalates it to double on a stall
/// or a failed dd128 check.
enum class QpuPrecision { kSingle, kDouble, kHalf, kAdaptive };
enum class PolyMethod { kInterpolated, kAnalytic };
enum class EncodingKind {
  kDenseEmbedding,  ///< 1-ancilla SVD completion (oracle-level; default)
  kLcuPauli,        ///< gate-level LCU over the tree Pauli decomposition
  kTridiagonal,     ///< gate-level banded encoding (A must be tridiag(-1,2,-1))
};

struct QsvtOptions {
  Backend backend = Backend::kGateLevel;
  QpuPrecision precision = QpuPrecision::kDouble;
  PolyMethod poly_method = PolyMethod::kInterpolated;
  EncodingKind encoding = EncodingKind::kDenseEmbedding;
  double eps_l = 1e-2;    ///< requested QSVT solve accuracy (relative)
  double kappa = 0.0;     ///< condition estimate; 0 = compute from the SVD
  double kappa_margin = 1.05;  ///< headroom multiplier on the estimate
  /// Shot-based readout: 0 = exact amplitudes (what the paper's myQLM
  /// experiments use — see DESIGN.md substitution #5), otherwise the
  /// number of measurement samples for the multinomial model.
  std::uint64_t shots = 0;
  std::uint64_t seed = 1234;  ///< for the shot and noise models
  /// Gate-level noise (trajectory-sampled); only honoured by kGateLevel.
  /// The paper targets fault-tolerant hardware — the noise ablation bench
  /// shows why NISQ rates break the refinement contraction.
  qsim::NoiseModel noise = {};
  qsp::SymQspOptions qsp_options = {};
};

/// Stateless forwarder to `PanelExecutor<T>::run`, kept only for bench/e2e/probes.hpp.
struct PanelReplayForwarder {
  template <typename T>
  static void apply_program_panel(const PanelReplayForwarder&,
                                  const qsim::exec::Program<T>& program,
                                  qsim::exec::StatePanel<T>& panel) {
    qsim::exec::PanelExecutor<T>{}.run(program, panel);
  }
};
inline constexpr PanelReplayForwarder kPanelReplayForwarder{};

/// Everything computed once per matrix. After preparation the context is
/// immutable: `qsvt_solve_direction` only reads it, so a single (shared)
/// context can serve many right-hand sides from many threads concurrently —
/// the amortization the service layer's context cache builds on.
struct QsvtSolverContext {
  QsvtOptions options;
  linalg::Matrix<double> A;
  /// SVD of A. U and V stay only in matrix-function contexts, the one
  /// backend that reads them after prepare.
  linalg::Svd svd;
  double kappa_effective = 0.0;     ///< kappa used for the polynomial
  blockenc::BlockEncoding be;       ///< block-encoding of A^T
  poly::InversePoly inverse;        ///< unwindowed inverse approximation
  poly::ChebSeries target;          ///< windowed + scaled QSP target
  double poly_scale = 1.0;          ///< target = scale * (windowed inverse)
  double eps_l_effective = 0.0;     ///< measured polynomial accuracy
  qsp::SymQspResult phases;         ///< symmetric QSP phases (gate backend)
  std::optional<QsvtCircuit> circuit;  ///< built for the gate backend
  /// The QSVT circuit lowered once (lower + fuse) to a precision-agnostic
  /// FusedIr; every program derived from it — each precision tier's
  /// Program<T>, and each shard-group world size's exchange plan and rank
  /// programs — is built lazily on first use and cached here, so neither
  /// tier hops nor repeated dist jobs recompile. ProgramSet is internally
  /// synchronized, so a shared-const context still hands out programs from
  /// many threads. Clean solves never re-interpret the gate list; only
  /// noise trajectories do.
  std::shared_ptr<qsim::exec::ProgramSet> programs;
  /// The replay probe's call shape (`ctx.exec_backend->apply_program_panel(
  /// *ctx.backend_handle, ...)`); see PanelReplayForwarder.
  static constexpr const PanelReplayForwarder* exec_backend = &kPanelReplayForwarder;
  static constexpr const PanelReplayForwarder* backend_handle = &kPanelReplayForwarder;
  /// Gate count of SP(rhs) for this register size. The KP-tree circuit's
  /// structure depends only on the vector length, so it is counted once
  /// here; the clean gate-level path embeds rhs_unit directly into the
  /// register (the circuit applied to |0…0> is exactly that embedding)
  /// and reports these gates without rebuilding the circuit per solve.
  std::uint64_t sp_circuit_gates = 0;
};

/// Stats of the context's compiled program (nullptr for the matrix-function
/// backend or contexts prepared without a circuit) — telemetry surfaced in
/// QsvtIrReport and the service job results.
const qsim::exec::ProgramStats* compiled_program_stats(const QsvtSolverContext& ctx);

/// One-off preparation: SVD, block-encoding, polynomial, phases, circuit.
QsvtSolverContext prepare_qsvt_solver(linalg::Matrix<double> A, QsvtOptions options);

/// Shared-ownership variant for caches and concurrent consumers: the
/// returned context is const, so every thread holding the pointer may call
/// `qsvt_solve_direction` on it without synchronization.
std::shared_ptr<const QsvtSolverContext> prepare_qsvt_solver_shared(linalg::Matrix<double> A,
                                                                    QsvtOptions options);

struct QsvtSolveOutcome {
  linalg::Vector<double> direction;  ///< unit vector ~ x / ||x||
  double success_probability = 0.0;  ///< ancilla postselection probability
  std::uint64_t be_calls = 0;        ///< block-encoding applications used
  std::uint64_t circuit_gates = 0;   ///< gate count of the executed circuit
};

/// Solve A x ~ rhs (rhs need not be normalized) for the direction of x.
QsvtSolveOutcome qsvt_solve_direction(const QsvtSolverContext& ctx,
                                      const linalg::Vector<double>& rhs);

/// The tier a precision runs at. The one place requested precisions are
/// normalized: kAdaptive (a schedule, not a tier) resolves to its most
/// accurate member kDouble, and the retired kHalf resolves to kSingle.
/// Returns kSingle or kDouble only.
QpuPrecision resolve_tier(QpuPrecision precision);

/// The tier a solve call runs at: `tier` if given, else the context's
/// configured precision, resolved as above.
QpuPrecision resolve_tier(const QsvtSolverContext& ctx,
                          std::optional<QpuPrecision> tier = std::nullopt);

/// Tier-override variant for the adaptive refinement loop: run this solve
/// at the given concrete precision tier (never kAdaptive; see resolve_tier)
/// regardless of the context's configured precision.
QsvtSolveOutcome qsvt_solve_direction(const QsvtSolverContext& ctx,
                                      const linalg::Vector<double>& rhs, QpuPrecision tier);

/// Panel-execution accounting for the batch API: how many compiled-program
/// panel sweeps ran and how many RHS lanes they carried. Lanes per panel /
/// the configured panel width is the service's lane-occupancy telemetry.
struct PanelExecStats {
  std::uint64_t panels = 0;  ///< panel sweeps of the compiled program
  std::uint64_t lanes = 0;   ///< right-hand sides carried by those sweeps
};

/// Batched variant of `qsvt_solve_direction`. Clean gate-level contexts
/// solve every right-hand side in ONE sweep of the cached compiled
/// program: each RHS is normalized and embedded directly into its own lane
/// of a StatePanel (no per-solve state-prep circuit), the program is
/// replayed once over the panel, and every lane is post-selected and
/// extracted. Outcomes match one-lane solves per RHS up to
/// vectorization-dependent rounding. The matrix-function backend and
/// noisy contexts solve one right-hand side at a time and leave `stats`
/// untouched.
std::vector<QsvtSolveOutcome> qsvt_solve_directions(
    const QsvtSolverContext& ctx, std::span<const linalg::Vector<double>> rhs,
    PanelExecStats* stats = nullptr,
    std::optional<QpuPrecision> tier = std::nullopt);

/// Pointer-batch overload for callers whose right-hand sides are not
/// contiguous (the lockstep refinement loop batches per-lane residual
/// vectors that live in separate lane states). `tier` overrides the
/// context's precision for this batch (see qsvt_solve_direction above) —
/// the adaptive loop issues one call per tier group per round.
std::vector<QsvtSolveOutcome> qsvt_solve_directions(
    const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs,
    PanelExecStats* stats = nullptr,
    std::optional<QpuPrecision> tier = std::nullopt);

}  // namespace mpqls::qsvt
