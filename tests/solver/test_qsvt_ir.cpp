// Tests of Algorithm 2 — the paper's central claims: geometric residual
// contraction at rate eps_l * kappa (Theorem III.1), iteration counts at
// or below the bound, and convergence to eps far beyond the QSVT's own
// accuracy.
#include "solver/qsvt_ir.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <span>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/random_matrix.hpp"
#include "solver/theory.hpp"

namespace mpqls::solver {
namespace {

QsvtIrOptions make_options(double eps, double eps_l,
                           qsvt::Backend backend = qsvt::Backend::kGateLevel) {
  QsvtIrOptions o;
  o.eps = eps;
  o.qsvt.eps_l = eps_l;
  o.qsvt.backend = backend;
  return o;
}

TEST(QsvtIr, ConvergesFarBeyondQsvtAccuracy) {
  Xoshiro256 rng(41);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  const auto rep = solve_qsvt_ir(A, b, make_options(1e-11, 1e-3));
  EXPECT_TRUE(rep.converged);
  EXPECT_LE(rep.scaled_residuals.back(), 1e-11);
  // The first solve alone is ~1e-3-accurate: refinement must have run.
  EXPECT_GE(rep.iterations, 2);
  // And the solution matches LU to the target accuracy.
  const auto x_lu = linalg::lu_solve(A, b);
  double err = 0.0;
  for (std::size_t i = 0; i < 16; ++i) err = std::fmax(err, std::fabs(rep.x[i] - x_lu[i]));
  EXPECT_LT(err, 1e-9);
}

TEST(QsvtIr, ResidualContractsAtTheoreticalRate) {
  Xoshiro256 rng(42);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  const auto rep = solve_qsvt_ir(A, b, make_options(1e-11, 1e-3));
  // eps_l_effective is the measured sup |2k P - 1/x| = the contraction
  // factor (eps_l * kappa in the paper's notation).
  const double rho = rep.eps_l_effective;
  ASSERT_LT(rho, 1.0);
  for (std::size_t i = 0; i + 1 < rep.scaled_residuals.size(); ++i) {
    if (rep.scaled_residuals[i + 1] > 1e-13) {  // above the u floor
      EXPECT_LE(rep.scaled_residuals[i + 1], rho * rep.scaled_residuals[i] * 10.0)
          << "step " << i;
    }
  }
}

TEST(QsvtIr, IterationCountWithinTheoremBound) {
  Xoshiro256 rng(43);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  const auto rep = solve_qsvt_ir(A, b, make_options(1e-11, 1e-2));
  EXPECT_TRUE(rep.converged);
  ASSERT_GT(rep.theoretical_iteration_bound, 0u);
  EXPECT_LE(static_cast<std::uint64_t>(rep.iterations), rep.theoretical_iteration_bound);
}

TEST(QsvtIr, MatrixBackendHandlesLargerKappa) {
  Xoshiro256 rng(44);
  const auto A = linalg::random_with_cond(rng, 16, 100.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  auto opts = make_options(1e-10, 5e-3, qsvt::Backend::kMatrixFunction);
  const auto rep = solve_qsvt_ir(A, b, opts);
  EXPECT_TRUE(rep.converged) << rep.scaled_residuals.back();
  EXPECT_LE(rep.scaled_residuals.back(), 1e-10);
}

TEST(QsvtIr, SinglePrecisionQpuFloorsAboveDouble) {
  Xoshiro256 rng(45);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  auto opts = make_options(1e-6, 1e-2);
  opts.qsvt.precision = qsvt::QpuPrecision::kSingle;
  const auto rep = solve_qsvt_ir(A, b, opts);
  // Single-precision QPU still reaches 1e-6 easily: the refinement is in
  // double on the CPU (the limiting accuracy depends on u, not u_l).
  EXPECT_TRUE(rep.converged);
}

TEST(QsvtIr, CommLogFollowsFigureOne) {
  Xoshiro256 rng(46);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  const auto rep = solve_qsvt_ir(A, b, make_options(1e-10, 1e-2));
  const auto& events = rep.comm.events();
  ASSERT_GE(events.size(), 4u);
  // Setup: BE(A^T), Phi, SP(b) from CPU to QPU.
  EXPECT_EQ(events[0].payload, "BE(A^T)");
  EXPECT_EQ(events[1].payload, "Phi");
  EXPECT_EQ(events[2].payload, "SP(b)");
  for (int k = 0; k < 3; ++k) {
    EXPECT_EQ(events[k].direction, hybrid::Direction::kCpuToQpu);
    EXPECT_LT(events[k].iteration, 0);
  }
  // Then alternating SP(r_i) / x_{i+1} pairs.
  EXPECT_EQ(events[3].payload, "x_0");
  if (rep.iterations >= 1) {
    EXPECT_EQ(events[4].payload, "SP(r_0)");
    EXPECT_EQ(events[4].direction, hybrid::Direction::kCpuToQpu);
    EXPECT_EQ(events[5].payload, "x_1");
    EXPECT_EQ(events[5].direction, hybrid::Direction::kQpuToCpu);
  }
  // The BE transfer happens exactly once.
  int be_transfers = 0;
  for (const auto& e : events) be_transfers += (e.payload == "BE(A^T)");
  EXPECT_EQ(be_transfers, 1);
}

TEST(QsvtIr, BatchLockstepMatchesOneLaneRefinement) {
  // One lockstep batch over 5 right-hand sides (5-lane panel sweeps under
  // the hood) must reproduce the 5 one-lane refinement runs: same iteration
  // counts, comm timelines and — up to the panel kernels' rounding — the
  // same solutions and residual histories.
  Xoshiro256 rng(48);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 5; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  const auto options = make_options(1e-10, 1e-2);
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  BatchSolveStats stats;
  const auto batch = solve_qsvt_ir_batch(
      ctx, std::span<const linalg::Vector<double>>(bs), options, &stats);
  ASSERT_EQ(batch.size(), bs.size());
  EXPECT_GE(stats.panels_executed, 1u);
  EXPECT_GE(stats.panel_lanes_total, bs.size());  // round 0 carries all lanes

  for (std::size_t k = 0; k < bs.size(); ++k) {
    const auto want = solve_qsvt_ir(ctx, bs[k], options);
    const auto& got = batch[k];
    EXPECT_TRUE(got.converged);
    EXPECT_EQ(got.converged, want.converged) << "lane " << k;
    EXPECT_EQ(got.iterations, want.iterations) << "lane " << k;
    EXPECT_EQ(got.solves.size(), want.solves.size()) << "lane " << k;
    EXPECT_EQ(got.total_be_calls, want.total_be_calls) << "lane " << k;
    ASSERT_EQ(got.x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      EXPECT_NEAR(got.x[i], want.x[i], 1e-9) << "lane " << k << " component " << i;
    }
    ASSERT_EQ(got.scaled_residuals.size(), want.scaled_residuals.size());
    ASSERT_EQ(got.comm.events().size(), want.comm.events().size());
    for (std::size_t e = 0; e < want.comm.events().size(); ++e) {
      EXPECT_EQ(got.comm.events()[e].payload, want.comm.events()[e].payload)
          << "lane " << k << " event " << e;
    }
  }
}

TEST(QsvtIr, TotalBeCallsAccumulateAcrossSolves)
{
  Xoshiro256 rng(47);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  const auto rep = solve_qsvt_ir(A, b, make_options(1e-10, 1e-2));
  std::uint64_t sum = 0;
  for (const auto& s : rep.solves) sum += s.be_calls;
  EXPECT_EQ(sum, rep.total_be_calls);
  EXPECT_EQ(rep.solves.size(), static_cast<std::size_t>(rep.iterations) + 1);
}

TEST(QsvtIr, DoubleDoubleResidualMatchesDouble) {
  Xoshiro256 rng(48);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  auto opts = make_options(1e-11, 1e-2);
  opts.residual_precision = ResidualPrecision::kDoubleDouble;
  const auto rep = solve_qsvt_ir(A, b, opts);
  EXPECT_TRUE(rep.converged);
}

TEST(QsvtIr, ClosedFormDenormalizationEquivalent) {
  Xoshiro256 rng(49);
  const auto A = linalg::random_with_cond(rng, 8, 10.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  auto brent_opts = make_options(1e-10, 1e-2);
  auto closed_opts = brent_opts;
  closed_opts.use_brent = false;
  const auto rep_b = solve_qsvt_ir(A, b, brent_opts);
  const auto rep_c = solve_qsvt_ir(A, b, closed_opts);
  EXPECT_EQ(rep_b.iterations, rep_c.iterations);
  for (std::size_t i = 0; i < rep_b.x.size(); ++i) {
    EXPECT_NEAR(rep_b.x[i], rep_c.x[i], 1e-8);
  }
}

TEST(QsvtIr, ZeroNoiseMatchesCleanRun) {
  Xoshiro256 rng(50);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  auto opts = make_options(1e-10, 1e-2);
  const auto clean = solve_qsvt_ir(A, b, opts);
  opts.qsvt.noise = qsim::NoiseModel{};  // explicit zero model
  const auto zero = solve_qsvt_ir(A, b, opts);
  ASSERT_EQ(clean.scaled_residuals.size(), zero.scaled_residuals.size());
  for (std::size_t i = 0; i < clean.scaled_residuals.size(); ++i) {
    EXPECT_DOUBLE_EQ(clean.scaled_residuals[i], zero.scaled_residuals[i]);
  }
}

TEST(QsvtIr, StrongNoiseStallsRefinement) {
  Xoshiro256 rng(51);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  auto opts = make_options(1e-10, 1e-2);
  opts.max_iterations = 10;
  opts.qsvt.noise.depolarizing_per_gate = 1e-2;
  const auto rep = solve_qsvt_ir(A, b, opts);
  // Refinement cannot push the residual to the fault-tolerant target.
  EXPECT_FALSE(rep.converged);
  EXPECT_GT(rep.scaled_residuals.back(), 1e-10);
}

// --- adaptive precision escalation ----------------------------------------

TEST(QsvtIrAdaptive, MatchesFixedDoubleAccuracyWellConditioned) {
  Xoshiro256 rng(60);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  auto opts = make_options(1e-11, 1e-2);
  const auto fixed = solve_qsvt_ir(A, b, opts);
  opts.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto adaptive = solve_qsvt_ir(A, b, opts);

  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(adaptive.converged);
  // Equal final accuracy: within 2x of fixed-double (or below target).
  EXPECT_LE(adaptive.scaled_residuals.back(),
            2.0 * std::fmax(fixed.scaled_residuals.back(), opts.eps));
  // The schedule started below double, and the final residual was
  // dd128-verified.
  EXPECT_GT(adaptive.tier_solves[kTierSingle], 0u);
  EXPECT_TRUE(adaptive.dd128_verified);
  EXPECT_LE(adaptive.dd128_final_residual, 2.0 * opts.eps);
  // Tier accounting covers every solve exactly once.
  EXPECT_EQ(adaptive.tier_solves[kTierSingle] + adaptive.tier_solves[kTierDouble],
            adaptive.solves.size());
  // Fixed-precision runs land entirely in their one tier and skip dd128.
  EXPECT_EQ(fixed.tier_solves[kTierDouble], fixed.solves.size());
  EXPECT_EQ(fixed.precision_switches, 0u);
  EXPECT_FALSE(fixed.dd128_verified);
}

TEST(QsvtIrAdaptive, MatchesFixedDoubleAccuracyIllConditioned) {
  Xoshiro256 rng(61);
  const auto A = linalg::random_with_cond(rng, 16, 30.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  auto opts = make_options(1e-11, 1e-2);
  const auto fixed = solve_qsvt_ir(A, b, opts);
  opts.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto adaptive = solve_qsvt_ir(A, b, opts);
  ASSERT_TRUE(fixed.converged);
  ASSERT_TRUE(adaptive.converged);
  EXPECT_LE(adaptive.scaled_residuals.back(),
            2.0 * std::fmax(fixed.scaled_residuals.back(), opts.eps));
  EXPECT_TRUE(adaptive.dd128_verified);
}

TEST(QsvtIrAdaptive, PolicyFloorsDriveTheSchedule) {
  Xoshiro256 rng(62);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  const auto b = linalg::random_unit_vector(rng, 8);
  auto opts = make_options(1e-11, 1e-2);
  opts.qsvt.precision = qsvt::QpuPrecision::kAdaptive;

  // A floor above any residual escalates to double right after the first
  // solve: one single solve, then double only, one switch.
  opts.escalation.single_floor = 1e300;
  const auto eager = solve_qsvt_ir(A, b, opts);
  EXPECT_TRUE(eager.converged);
  EXPECT_EQ(eager.tier_solves[kTierSingle], 1u);
  EXPECT_GT(eager.tier_solves[kTierDouble], 0u);
  EXPECT_EQ(eager.precision_switches, 1u);

  // A floor at zero and a stall ratio nothing exceeds pin the lane to the
  // single tier: the proactive and stall triggers must both stay silent,
  // so every solve runs on the single program.
  opts.escalation.single_floor = 0.0;
  opts.escalation.stall_ratio = 1e300;
  opts.max_iterations = 6;
  const auto pinned = solve_qsvt_ir(A, b, opts);
  EXPECT_EQ(pinned.precision_switches, 0u);
  EXPECT_EQ(pinned.tier_solves[kTierDouble], 0u);
  EXPECT_EQ(pinned.tier_solves[kTierSingle], pinned.solves.size());
  if (pinned.converged) EXPECT_TRUE(pinned.dd128_verified);
}

TEST(QsvtIrAdaptive, BatchLanesEscalateIndependently) {
  // Lockstep adaptive batch: every lane runs its own escalation state
  // (tier, switches, dd128 check) while sharing panel sweeps with the
  // lanes currently at the same tier.
  Xoshiro256 rng(63);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 6; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = make_options(1e-11, 1e-2);
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  // Single alone reaches eps here; a floor mid-trajectory makes every lane
  // escalate, each when its own residual crosses it.
  options.escalation.single_floor = 1e-6;
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  BatchSolveStats stats;
  const auto batch = solve_qsvt_ir_batch(
      ctx, std::span<const linalg::Vector<double>>(bs), options, &stats);
  ASSERT_EQ(batch.size(), bs.size());
  EXPECT_GE(stats.panels_executed, 1u);
  for (std::size_t k = 0; k < batch.size(); ++k) {
    const auto& rep = batch[k];
    EXPECT_TRUE(rep.converged) << "lane " << k;
    EXPECT_LE(rep.scaled_residuals.back(), options.eps) << "lane " << k;
    EXPECT_TRUE(rep.dd128_verified) << "lane " << k;
    EXPECT_GE(rep.precision_switches, 1u) << "lane " << k;
    EXPECT_EQ(rep.tier_solves[kTierSingle] + rep.tier_solves[kTierDouble], rep.solves.size())
        << "lane " << k;
    EXPECT_EQ(rep.tier_iterations[kTierSingle] + rep.tier_iterations[kTierDouble],
              static_cast<std::uint64_t>(rep.iterations))
        << "lane " << k;
  }
  // The one-lane adaptive run agrees on the solution (kernels round
  // differently per lane count, so compare to tolerance, not bitwise).
  for (std::size_t k = 0; k < bs.size(); ++k) {
    const auto want = solve_qsvt_ir(ctx, bs[k], options);
    ASSERT_EQ(batch[k].x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      EXPECT_NEAR(batch[k].x[i], want.x[i], 1e-9) << "lane " << k << " component " << i;
    }
  }
}

TEST(QsvtIrAdaptive, ContextSpecializesLazilyAndOnce) {
  Xoshiro256 rng(64);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  auto options = make_options(1e-11, 1e-2);
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
  ASSERT_NE(ctx.programs, nullptr);
  // Adaptive preparation compiles the shared IR but specializes nothing
  // until a tier actually executes.
  EXPECT_EQ(ctx.programs->specializations(), 0u);

  const auto first = solve_qsvt_ir(ctx, b, options);
  EXPECT_TRUE(first.converged);
  const auto after_first = ctx.programs->specializations();
  EXPECT_GE(after_first, 1u);  // at least the single tier ran
  EXPECT_LE(after_first, 2u);

  // Re-solving against the same context — same or different tier mix —
  // reuses the cached specializations: the counter must not move.
  const auto second = solve_qsvt_ir(ctx, b, options);
  EXPECT_TRUE(second.converged);
  EXPECT_EQ(ctx.programs->specializations(), after_first);

  // Forcing the remaining tier explicitly compiles it exactly once.
  ctx.programs->get<double>();
  ctx.programs->get<double>();
  ctx.programs->get<float>();
  EXPECT_EQ(ctx.programs->specializations(), 2u);
}

TEST(QsvtIrAdaptive, HalfRequestRunsTheSingleTier) {
  // The retired half tier resolves to single in one place: preparing
  // specializes nothing, the solve builds only the float program, and it
  // is bitwise the single-precision solve with every replay on single.
  Xoshiro256 rng(65);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  const auto b = linalg::random_unit_vector(rng, 16);
  auto options = make_options(1e-11, 1e-2);
  options.qsvt.precision = qsvt::QpuPrecision::kHalf;
  const auto half_ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
  EXPECT_EQ(qsvt::resolve_tier(half_ctx), qsvt::QpuPrecision::kSingle);
  EXPECT_EQ(half_ctx.programs->specializations(), 0u);
  const auto half = solve_qsvt_ir(half_ctx, b, options);
  EXPECT_EQ(half_ctx.programs->specializations(), 1u);
  half_ctx.programs->get<float>();  // the one it built was float

  options.qsvt.precision = qsvt::QpuPrecision::kSingle;
  const auto single = solve_qsvt_ir(A, b, options);
  ASSERT_TRUE(single.converged);
  EXPECT_EQ(half.x, single.x);
  EXPECT_EQ(half.scaled_residuals, single.scaled_residuals);
  EXPECT_EQ(half.tier_solves, single.tier_solves);
  EXPECT_EQ(half.tier_solves[kTierSingle], half.solves.size());
  EXPECT_EQ(half_ctx.programs->specializations(), 1u);
}

TEST(Theory, IterationBoundFormula) {
  // eps = 1e-12, rho = 1e-2 -> exactly 6 solves.
  EXPECT_EQ(iteration_bound(1e-12, 1e-3, 10.0), 6u);
  EXPECT_EQ(iteration_bound(1e-11, 1e-2, 10.0), 11u);
  EXPECT_THROW(iteration_bound(1e-11, 0.2, 10.0), contract_violation);
}

TEST(Theory, IrBeatsPlainQsvtForSmallEps) {
  // Table I: with eps << eps_l the sample term 1/eps^2 dominates the plain
  // QSVT cost; IR wins by orders of magnitude.
  const double B = 100.0, kappa = 2.0, eps_l = 0.4;
  const auto plain = qsvt_only_cost(B, kappa, 1e-10);
  const auto ir = qsvt_ir_cost(B, kappa, 1e-10, eps_l);
  EXPECT_GT(plain.total / ir.total, 1e6);
  // At eps = eps_l the per-solve cost terms coincide (Fig. 5's meeting
  // point: in the experiments a single solve reaches eps_l, so the
  // measured totals match; the Theorem III.1 *bound* on #solves is
  // pessimistic there, which is why we compare per-solve cost).
  const auto plain_same = qsvt_only_cost(B, kappa, eps_l);
  const auto ir_same = qsvt_ir_cost(B, kappa, eps_l, eps_l);
  EXPECT_NEAR(plain_same.c_qsvt, ir_same.c_qsvt, 1e-9);
  EXPECT_NEAR(plain_same.samples, ir_same.samples, 1e-9);
}

// Property sweep over kappa, eps_l, backends: Theorem III.1 end to end.
class QsvtIrSweep
    : public ::testing::TestWithParam<std::tuple<double, double, qsvt::Backend>> {};

TEST_P(QsvtIrSweep, ConvergesWithinBound) {
  const auto [kappa, eps_l, backend] = GetParam();
  Xoshiro256 rng(1000 + static_cast<std::uint64_t>(kappa));
  const auto A = linalg::random_with_cond(rng, 16, kappa);
  const auto b = linalg::random_unit_vector(rng, 16);
  const auto rep = solve_qsvt_ir(A, b, make_options(1e-10, eps_l, backend));
  EXPECT_TRUE(rep.converged) << "kappa=" << kappa << " eps_l=" << eps_l;
  if (rep.theoretical_iteration_bound > 0) {
    EXPECT_LE(static_cast<std::uint64_t>(rep.iterations), rep.theoretical_iteration_bound);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, QsvtIrSweep,
    ::testing::Values(std::make_tuple(5.0, 1e-2, qsvt::Backend::kGateLevel),
                      std::make_tuple(10.0, 1e-2, qsvt::Backend::kGateLevel),
                      std::make_tuple(10.0, 1e-3, qsvt::Backend::kGateLevel),
                      std::make_tuple(20.0, 1e-3, qsvt::Backend::kGateLevel),
                      std::make_tuple(50.0, 1e-3, qsvt::Backend::kMatrixFunction),
                      std::make_tuple(100.0, 1e-3, qsvt::Backend::kMatrixFunction)));

}  // namespace
}  // namespace mpqls::solver
