// Algorithm 2 of the paper: mixed-precision iterative refinement around
// the QSVT linear solver. The QPU computes low-accuracy solution
// directions (accuracy eps_l, in single or double precision);
// the CPU computes residuals and updates in high precision u, normalizes
// each right-hand side before shipping it (Remark 2), de-normalizes the
// returned direction with Brent's method, and stops on the scaled
// residual omega = ||b - A x|| / ||b|| <= eps.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/trace.hpp"
#include "hybrid/comm.hpp"
#include "linalg/matrix.hpp"
#include "qsvt/solve.hpp"

namespace mpqls::qsvt::dist {
class DistSolveSession;
}

namespace mpqls::solver {

enum class ResidualPrecision {
  kDouble,       ///< u = 2^-53 (the paper's setting with eps = 1e-11)
  kDoubleDouble  ///< u ~ 2^-104 via dd128 (headroom ablation)
};

/// When `qsvt.precision == kAdaptive`, how the refinement loop escalates a
/// lane from the single tier to double. Two triggers, both per lane:
///  * proactive floor — once the residual drops to `single_floor` the next
///    iteration runs on double;
///  * stall — an iteration that contracts by less than `stall_ratio`
///    escalates immediately.
/// A lane whose double-precision convergence signal fails the final dd128
/// check also escalates. Escalation is monotone; the double tier keeps the
/// fixed-precision stagnation rule (deactivate when the residual stops
/// improving). In Theorem III.1 the QPU's accuracy enters only through the
/// contraction factor eps_l kappa, and the final accuracy comes from the
/// residual at precision u: the single tier contracts at the double
/// tier's rate arbitrarily deep (normalized residuals absorb its roundoff,
/// Remark 2), so its floor sits below any practical eps and the stall
/// trigger alone decides when double is really needed.
struct EscalationPolicy {
  double stall_ratio = 0.5;     ///< escalate when omega_new > stall_ratio * omega
  double single_floor = 1e-12;  ///< leave the single tier at this scaled residual
};

struct QsvtIrOptions {
  double eps = 1e-11;    ///< target scaled residual
  int max_iterations = 60;
  bool use_brent = true;  ///< Brent de-normalization (paper) vs closed form
  ResidualPrecision residual_precision = ResidualPrecision::kDouble;
  EscalationPolicy escalation = {};  ///< adaptive-precision schedule knobs
  qsvt::QsvtOptions qsvt = {};  ///< eps_l, backend, precision, shots, ...

  /// Runtime-only span sink (never hashed into fingerprints, never wire
  /// encoded): when set, the refinement loop records one "replay" span
  /// per tier-group sweep (attrs: round, tier, lanes, escalations) and a
  /// "dd128_verify" span per final verification, parented under
  /// `trace_span`. Null = no recording.
  trace::TraceContext trace = {};
  std::uint64_t trace_span = 0;

  /// Runtime-only distributed-execution session (like `trace`, never
  /// hashed into fingerprints, never wire encoded): when set, every QSVT
  /// replay runs this rank's shard of the statevector through the
  /// session instead of the local panel path. The classical refinement
  /// loop is untouched — each rank receives identical allreduced
  /// outcomes, takes identical tier decisions, and stays in lockstep
  /// with its peers without extra synchronization. Null = single-node.
  std::shared_ptr<qsvt::dist::DistSolveSession> dist;
};

struct SolveTelemetry {
  double mu = 0.0;                  ///< de-normalization step length
  double success_probability = 0.0;
  std::uint64_t be_calls = 0;
  std::uint64_t circuit_gates = 0;
};

/// Tier indices of the per-precision telemetry arrays.
inline constexpr int kTierSingle = 0;
inline constexpr int kTierDouble = 1;
inline constexpr std::size_t kTierCount = 2;

struct QsvtIrReport {
  linalg::Vector<double> x;
  std::vector<double> scaled_residuals;  ///< omega after each solve (0 = first)
  int iterations = 0;                    ///< refinement iterations
  bool converged = false;

  double kappa = 0.0;                  ///< condition estimate used
  double eps_l_requested = 0.0;
  double eps_l_effective = 0.0;        ///< measured polynomial accuracy
  int poly_degree = 0;
  double poly_scale = 1.0;
  std::uint64_t theoretical_iteration_bound = 0;  ///< Theorem III.1
  std::uint64_t total_be_calls = 0;

  /// Compiled-program telemetry (gate backend; all zero for the
  /// matrix-function backend): how the execution engine lowered the cached
  /// QSVT circuit, and what the one-off compilation cost.
  std::uint64_t program_source_gates = 0;  ///< gates before fusion
  std::uint64_t program_ops = 0;           ///< executable ops after fusion
  std::uint64_t program_depth = 0;         ///< greedy depth of the program
  double program_compile_seconds = 0.0;

  /// Per-precision-tier execution telemetry, indexed single/double
  /// (kTierSingle, kTierDouble). Fixed-precision runs report everything
  /// under their one tier; adaptive runs spread across the schedule.
  std::array<std::uint64_t, kTierCount> tier_solves{};      ///< QSVT replays per tier
  std::array<std::uint64_t, kTierCount> tier_iterations{};  ///< refinement iterations per tier
  std::uint64_t precision_switches = 0;            ///< tier escalations taken
  /// Adaptive runs re-verify the final double-precision residual in dd128
  /// before declaring convergence (the only place dd128 enters the
  /// adaptive schedule). False for fixed-precision runs and for the rare
  /// adaptive run whose dd128 residual disagreed with double's.
  bool dd128_verified = false;
  double dd128_final_residual = 0.0;  ///< the dd128-recomputed scaled residual

  std::vector<SolveTelemetry> solves;  ///< per QSVT call (first + iterations)
  hybrid::CommLog comm;                ///< Fig. 1 transfer timeline
};

/// Solve A x = b with Algorithm 2.
QsvtIrReport solve_qsvt_ir(const linalg::Matrix<double>& A, const linalg::Vector<double>& b,
                           const QsvtIrOptions& options = {});

/// Variant reusing an existing solver context (the paper's point that
/// BE(A^T) and the phases are compiled once and reused; also what the
/// benchmarks use to sweep right-hand sides).
QsvtIrReport solve_qsvt_ir(const qsvt::QsvtSolverContext& ctx, const linalg::Vector<double>& b,
                           const QsvtIrOptions& options);

/// Panel accounting of a batched refinement run (see solve_qsvt_ir_batch):
/// cumulative sweep and lane counts, the numbers the service exports as
/// its panel-occupancy telemetry.
struct BatchSolveStats {
  std::uint64_t panels_executed = 0;   ///< compiled-program panel sweeps
  std::uint64_t panel_lanes_total = 0; ///< RHS lanes those sweeps carried
};

/// Algorithm 2 over a batch of right-hand sides in lockstep: every
/// refinement round batches the still-active lanes' residuals into ONE
/// panel replay of the context's compiled program (qsvt_solve_directions),
/// then de-normalizes, updates and checks convergence per lane exactly as
/// a one-RHS solve does. Lanes drop out as they converge or stagnate, so
/// later panels may run below full occupancy. Reports are ordered like
/// `bs` and agree with per-RHS solve_qsvt_ir up to the panel kernels'
/// lane-count-dependent rounding (bitwise for one-RHS batches and for the
/// per-RHS matrix-function and noisy paths).
std::vector<QsvtIrReport> solve_qsvt_ir_batch(const qsvt::QsvtSolverContext& ctx,
                                              std::span<const linalg::Vector<double>> bs,
                                              const QsvtIrOptions& options,
                                              BatchSolveStats* stats = nullptr);

}  // namespace mpqls::solver
