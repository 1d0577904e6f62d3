#include "solver/qsvt_ir.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"
#include "linalg/dd128.hpp"
#include "qsvt/denormalize.hpp"
#include "qsvt/dist_solve.hpp"
#include "solver/theory.hpp"

namespace mpqls::solver {

namespace {

// Residual in the configured high precision u; the result is rounded back
// to double (the CPU working vector), which is exactly the Algorithm 2
// "compute r_i = b - A x_i at precision u" step.
linalg::Vector<double> residual_high_precision(const linalg::Matrix<double>& A,
                                               const linalg::Vector<double>& x,
                                               const linalg::Vector<double>& b,
                                               ResidualPrecision precision) {
  if (precision == ResidualPrecision::kDouble) {
    return linalg::residual(A, x, b);
  }
  using linalg::dd128;
  const std::size_t n = b.size();
  linalg::Vector<double> r(n);
  for (std::size_t i = 0; i < n; ++i) {
    dd128 acc(b[i]);
    for (std::size_t j = 0; j < n; ++j) {
      acc -= dd128(A(i, j)) * dd128(x[j]);
    }
    r[i] = acc.hi();
  }
  return r;
}

/// Static per-solve report header: context telemetry plus the Theorem
/// III.1 iteration bound — identical for every right-hand side served
/// from one context.
QsvtIrReport init_report(const qsvt::QsvtSolverContext& ctx, const QsvtIrOptions& options) {
  QsvtIrReport rep;
  rep.kappa = ctx.kappa_effective;
  rep.eps_l_requested = ctx.options.eps_l;
  rep.eps_l_effective = ctx.eps_l_effective;
  rep.poly_degree = ctx.target.degree();
  rep.poly_scale = ctx.poly_scale;
  if (const auto* program = qsvt::compiled_program_stats(ctx)) {
    rep.program_source_gates = program->source_gates;
    rep.program_ops = program->ops;
    rep.program_depth = program->depth;
    rep.program_compile_seconds = program->compile_seconds;
  }
  // The measured polynomial error sup |2k P(x) - 1/x| bounds the residual
  // contraction per iteration directly: in the paper's notation this
  // quantity IS eps_l * kappa (their eps_l is the solution relative error
  // ~ eps'/kappa; see Section III-A).
  const double rho = rep.eps_l_effective;
  rep.theoretical_iteration_bound =
      (rho > 0.0 && rho < 1.0)
          ? iteration_bound(options.eps, rho / rep.kappa, rep.kappa)
          : 0;
  return rep;
}

/// Setup transfers (Fig. 1): BE(A^T), the phase vector, SP(b).
void record_setup_comm(const qsvt::QsvtSolverContext& ctx, std::size_t n, hybrid::CommLog& comm) {
  const std::uint64_t be_gates = std::max<std::uint64_t>(ctx.be.circuit.size(), 1);
  comm.record(hybrid::Direction::kCpuToQpu, "BE(A^T)", hybrid::circuit_wire_bytes(be_gates), -1);
  comm.record(hybrid::Direction::kCpuToQpu, "Phi",
              hybrid::vector_wire_bytes(ctx.phases.phases.size()), -1);
  comm.record(hybrid::Direction::kCpuToQpu, "SP(b)", hybrid::vector_wire_bytes(n), -1);
}

}  // namespace

QsvtIrReport solve_qsvt_ir(const qsvt::QsvtSolverContext& ctx, const linalg::Vector<double>& b,
                           const QsvtIrOptions& options) {
  // One-lane batch: Algorithm 2 lives once, in solve_qsvt_ir_batch, and a
  // singleton batch replays one-lane panels — the same arithmetic a
  // service job at panel width 1 performs (bitwise; the service
  // determinism tests pin it).
  return std::move(
      solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(&b, 1), options)[0]);
}

QsvtIrReport solve_qsvt_ir(const linalg::Matrix<double>& A, const linalg::Vector<double>& b,
                           const QsvtIrOptions& options) {
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
  return solve_qsvt_ir(ctx, b, options);
}

std::vector<QsvtIrReport> solve_qsvt_ir_batch(const qsvt::QsvtSolverContext& ctx,
                                              std::span<const linalg::Vector<double>> bs,
                                              const QsvtIrOptions& options,
                                              BatchSolveStats* stats) {
  const auto& A = ctx.A;
  const std::size_t n = A.rows();
  expects(!bs.empty(), "solve_qsvt_ir_batch: at least one right-hand side");

  const bool adaptive = ctx.options.precision == qsvt::QpuPrecision::kAdaptive;
  const auto tier_precision = [](int tier) {
    return tier == kTierSingle ? qsvt::QpuPrecision::kSingle : qsvt::QpuPrecision::kDouble;
  };
  const auto tier_name = [](int tier) -> std::string_view {
    return tier == kTierSingle ? "single" : "double";
  };
  // Where the schedule starts. Fixed-precision contexts pin the tier their
  // precision resolves to for the whole run (telemetry lands on it, no
  // escalation). Adaptive starts on single on the gate path; the
  // matrix-function backend does all arithmetic in double regardless, so
  // adaptive is a no-op there.
  const bool starts_single = adaptive ? ctx.options.backend == qsvt::Backend::kGateLevel
                                      : qsvt::resolve_tier(ctx) == qsvt::QpuPrecision::kSingle;
  const int initial_tier = starts_single ? kTierSingle : kTierDouble;

  // Per-lane refinement state: each lane runs exactly a one-RHS solve's
  // decisions (de-normalization, convergence and stagnation checks, comm
  // records); only the QSVT calls are batched across lanes.
  struct Lane {
    const linalg::Vector<double>* b = nullptr;
    QsvtIrReport rep;
    linalg::Vector<double> r;    ///< current residual (the next lane RHS)
    double norm_b = 0.0;
    double omega = 0.0;          ///< last accepted scaled residual
    int it = 0;                  ///< refinement iterations completed
    int tier = kTierDouble;      ///< current precision tier of this lane
    bool dd_checked = false;     ///< dd128 verification already recorded
    bool active = true;
  };
  std::vector<Lane> lanes(bs.size());
  for (std::size_t l = 0; l < bs.size(); ++l) {
    Lane& lane = lanes[l];
    lane.b = &bs[l];
    expects(lane.b->size() == n, "solve_qsvt_ir_batch: dimension mismatch");
    lane.rep = init_report(ctx, options);
    lane.norm_b = linalg::nrm2(*lane.b);
    expects(lane.norm_b > 0.0, "solve_qsvt_ir_batch: zero right-hand side");
    lane.tier = initial_tier;
    record_setup_comm(ctx, n, lane.rep.comm);
  }

  auto lane_fit = [&](const Lane& lane, const linalg::Vector<double>& x_base,
                      const linalg::Vector<double>& eta) {
    return options.use_brent ? qsvt::fit_step_brent(A, x_base, eta, *lane.b)
                             : qsvt::fit_step_closed_form(A, x_base, eta, *lane.b);
  };
  auto scaled_residual = [&](Lane& lane) {
    lane.r = residual_high_precision(A, lane.rep.x, *lane.b, options.residual_precision);
    return linalg::nrm2(lane.r) / lane.norm_b;
  };
  // The one place dd128 enters the adaptive schedule: recompute the final
  // residual at u ~ 2^-104 to verify the double-precision convergence
  // signal is not a rounding artifact. The factor-2 guard matches the
  // bench's equal-accuracy window (‖r‖/‖b‖ within 2× counts as equal).
  auto dd128_scaled_residual = [&](const Lane& lane) {
    MPQLS_TRACE_SPAN(dd_span, options.trace, "dd128_verify", options.trace_span);
    const auto r =
        residual_high_precision(A, lane.rep.x, *lane.b, ResidualPrecision::kDoubleDouble);
    return linalg::nrm2(r) / lane.norm_b;
  };
  auto escalate = [](Lane& lane, int to_tier) {
    lane.tier = to_tier;
    ++lane.rep.precision_switches;
  };

  qsvt::PanelExecStats pstats;

  // --- First solve on every lane: x_0 = mu_0 * eta_0, one panel sweep ---
  // All lanes share the initial tier, so this is a single tier group.
  {
    MPQLS_TRACE_SPAN(replay_span, options.trace, "replay", options.trace_span);
    replay_span.attr("round", std::uint64_t{0});
    replay_span.attr("tier", tier_name(initial_tier));
    replay_span.attr("lanes", static_cast<std::uint64_t>(lanes.size()));
    std::vector<const linalg::Vector<double>*> batch;
    batch.reserve(lanes.size());
    for (const Lane& lane : lanes) batch.push_back(lane.b);
    const auto outcomes =
        options.dist
            ? options.dist->solve_directions(ctx, batch, tier_precision(initial_tier), &pstats)
            : qsvt::qsvt_solve_directions(ctx, batch, &pstats, tier_precision(initial_tier));
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      Lane& lane = lanes[l];
      const auto& outcome = outcomes[l];
      lane.rep.comm.record(hybrid::Direction::kQpuToCpu, "x_0", hybrid::vector_wire_bytes(n), -1);
      const auto fit = lane_fit(lane, {}, outcome.direction);
      lane.rep.x.assign(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) lane.rep.x[i] = fit.mu * outcome.direction[i];
      lane.rep.solves.push_back({fit.mu, outcome.success_probability, outcome.be_calls,
                                 outcome.circuit_gates});
      lane.rep.total_be_calls += outcome.be_calls;
      ++lane.rep.tier_solves[static_cast<std::size_t>(lane.tier)];
      lane.omega = scaled_residual(lane);
      lane.rep.scaled_residuals.push_back(lane.omega);
    }
  }

  // --- Lockstep refinement: active lanes advance one iteration per round,
  // their residuals sharing one panel sweep per precision tier. Converged
  // and stagnated lanes drop out, so occupancy may shrink round over
  // round; adaptive lanes escalate tiers independently, so a round may
  // split into two tier-group sweeps. ---
  int round = 0;
  for (;;) {
    ++round;
    std::vector<std::size_t> roster;
    for (std::size_t l = 0; l < lanes.size(); ++l) {
      Lane& lane = lanes[l];
      if (!lane.active) continue;
      if (lane.omega <= options.eps) {
        if (adaptive && !lane.dd_checked) {
          // Final verification: confirm convergence at u ~ 2^-104 before
          // trusting a residual produced by a cheap-tier schedule. A
          // failed check keeps the lane refining on the double tier.
          const double dd = dd128_scaled_residual(lane);
          lane.dd_checked = true;
          lane.rep.dd128_final_residual = dd;
          if (dd > 2.0 * options.eps && lane.tier == kTierSingle) {
            escalate(lane, kTierDouble);
          } else {
            lane.rep.dd128_verified = dd <= 2.0 * options.eps;
            lane.rep.converged = true;
            lane.active = false;
            continue;
          }
        } else {
          lane.rep.converged = true;
          lane.active = false;
          continue;
        }
      }
      if (lane.it >= options.max_iterations) {
        lane.active = false;
        continue;
      }
      if (adaptive && lane.tier == kTierSingle && lane.omega <= options.escalation.single_floor) {
        // Proactive floor: below it single's roundoff stops the
        // contraction, so the next iteration runs on double.
        escalate(lane, kTierDouble);
      }
      roster.push_back(l);
    }
    if (roster.empty()) break;

    // Snapshot the tier groups before any solve: a lane that escalates
    // after its group's sweep must not be swept again by a higher tier's
    // group in the same round.
    std::array<std::vector<std::size_t>, kTierCount> groups;
    for (const std::size_t l : roster) {
      groups[static_cast<std::size_t>(lanes[l].tier)].push_back(l);
    }
    const auto group_switches = [&](const std::vector<std::size_t>& group) {
      std::uint64_t total = 0;
      for (const std::size_t l : group) total += lanes[l].rep.precision_switches;
      return total;
    };
    for (int tier = kTierSingle; tier <= kTierDouble; ++tier) {
      const auto& group = groups[static_cast<std::size_t>(tier)];
      if (group.empty()) continue;

      MPQLS_TRACE_SPAN(replay_span, options.trace, "replay", options.trace_span);
      replay_span.attr("round", static_cast<std::uint64_t>(round));
      replay_span.attr("tier", tier_name(tier));
      replay_span.attr("lanes", static_cast<std::uint64_t>(group.size()));
      const std::uint64_t switches_before = replay_span ? group_switches(group) : 0;

      std::vector<const linalg::Vector<double>*> batch;
      batch.reserve(group.size());
      for (const std::size_t l : group) {
        Lane& lane = lanes[l];
        // SP(r_i) is the only CPU->QPU transfer per iteration (Fig. 1).
        lane.rep.comm.record(hybrid::Direction::kCpuToQpu,
                             "SP(r_" + std::to_string(lane.it) + ")",
                             hybrid::vector_wire_bytes(n), lane.it);
        batch.push_back(&lane.r);
      }
      const auto outcomes =
          options.dist
              ? options.dist->solve_directions(ctx, batch, tier_precision(tier), &pstats)
              : qsvt::qsvt_solve_directions(ctx, batch, &pstats, tier_precision(tier));
      for (std::size_t k = 0; k < group.size(); ++k) {
        Lane& lane = lanes[group[k]];
        const auto& outcome = outcomes[k];
        const int it = lane.it;
        lane.rep.comm.record(hybrid::Direction::kQpuToCpu, "x_" + std::to_string(it + 1),
                             hybrid::vector_wire_bytes(n), it);

        // De-normalize: e_i = mu * eta minimizing ||A(x + mu eta) - b||.
        const auto fit = lane_fit(lane, lane.rep.x, outcome.direction);
        for (std::size_t i = 0; i < n; ++i) lane.rep.x[i] += fit.mu * outcome.direction[i];
        lane.rep.solves.push_back({fit.mu, outcome.success_probability, outcome.be_calls,
                                   outcome.circuit_gates});
        lane.rep.total_be_calls += outcome.be_calls;
        ++lane.rep.tier_solves[static_cast<std::size_t>(tier)];
        ++lane.rep.tier_iterations[static_cast<std::size_t>(tier)];
        lane.rep.iterations = it + 1;
        lane.it = it + 1;

        const double prev = lane.omega;
        const double omega_new = scaled_residual(lane);
        lane.rep.scaled_residuals.push_back(omega_new);
        if (adaptive) {
          // The fit minimizes over mu (mu = 0 allowed), so accepting the
          // update never worsens the residual; "stall" means insufficient
          // contraction, answered by escalating rather than giving up.
          if (omega_new < lane.omega) lane.omega = omega_new;
          if (omega_new > options.eps &&
              omega_new > options.escalation.stall_ratio * prev) {
            if (lane.tier == kTierSingle) {
              escalate(lane, kTierDouble);
            } else if (omega_new >= prev) {
              // Double-tier stagnation: the precision-u floor is reached.
              lane.active = false;
            }
          }
        } else if (omega_new >= lane.omega && omega_new > options.eps) {
          // Stagnation: the QSVT accuracy floor or u has been reached.
          lane.active = false;
        } else {
          lane.omega = omega_new;
        }
      }
      if (replay_span) {
        const std::uint64_t escalated = group_switches(group) - switches_before;
        if (escalated != 0) replay_span.attr("escalations", escalated);
      }
    }
  }

  std::vector<QsvtIrReport> reports;
  reports.reserve(lanes.size());
  for (Lane& lane : lanes) {
    if (!lane.rep.converged && lane.omega <= options.eps) {
      // Lanes that hit eps on their very last permitted iteration exit the
      // round loop before the roster sees them; give adaptive lanes the
      // same final dd128 verification they would have received there.
      if (adaptive && !lane.dd_checked) {
        const double dd = dd128_scaled_residual(lane);
        lane.dd_checked = true;
        lane.rep.dd128_final_residual = dd;
        lane.rep.dd128_verified = dd <= 2.0 * options.eps;
      }
      lane.rep.converged = true;
    }
    reports.push_back(std::move(lane.rep));
  }
  if (stats) {
    stats->panels_executed += pstats.panels;
    stats->panel_lanes_total += pstats.lanes;
  }
  return reports;
}

}  // namespace mpqls::solver
