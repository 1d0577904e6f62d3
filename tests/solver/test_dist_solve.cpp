// Distributed shard-group solves through the full Algorithm 2 refinement
// loop: W ranks each run solve_qsvt_ir_batch against the shared context
// with a DistSolveSession wired in, exchanging amplitudes over a
// LocalPeerGroup. Every rank must produce the identical report (the
// lockstep contract the adaptive schedule relies on), 2- and 4-shard
// results must agree bitwise with each other (both reduce to the same
// one-lane replay arithmetic), and all must match the single-node solver
// within the lane-count rounding tolerance.
#include "solver/qsvt_ir.hpp"

#include <gtest/gtest.h>

#include <exception>
#include <span>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsvt/dist_solve.hpp"

namespace mpqls::solver {
namespace {

QsvtIrOptions base_options() {
  QsvtIrOptions o;
  o.eps = 1e-11;
  o.qsvt.eps_l = 1e-2;
  return o;
}

/// Run the batch on W ranks over a LocalPeerGroup; returns every rank's
/// reports (outer index = rank).
std::vector<std::vector<QsvtIrReport>> solve_distributed(
    const qsvt::QsvtSolverContext& ctx, const std::vector<linalg::Vector<double>>& bs,
    const QsvtIrOptions& options, std::uint32_t world_log2) {
  const std::uint32_t world = 1u << world_log2;
  qsim::exec::dist::LocalPeerGroup group(world);
  std::vector<std::vector<QsvtIrReport>> per_rank(world);
  std::vector<std::exception_ptr> errors(world);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = std::make_shared<qsvt::dist::DistSolveSession>(
            qsvt::dist::DistConfig{r, world_log2, group.channel(r)});
        per_rank[r] = solve_qsvt_ir_batch(
            ctx, std::span<const linalg::Vector<double>>(bs), opts);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 0; r < world; ++r) {
    if (errors[r]) std::rethrow_exception(errors[r]);
  }
  return per_rank;
}

void expect_reports_identical(const QsvtIrReport& a, const QsvtIrReport& b, const char* what) {
  EXPECT_EQ(a.converged, b.converged) << what;
  EXPECT_EQ(a.iterations, b.iterations) << what;
  EXPECT_EQ(a.precision_switches, b.precision_switches) << what;
  EXPECT_EQ(a.tier_solves, b.tier_solves) << what;
  ASSERT_EQ(a.x.size(), b.x.size()) << what;
  for (std::size_t i = 0; i < a.x.size(); ++i) {
    EXPECT_EQ(a.x[i], b.x[i]) << what << " component " << i;
  }
  ASSERT_EQ(a.scaled_residuals.size(), b.scaled_residuals.size()) << what;
  for (std::size_t i = 0; i < a.scaled_residuals.size(); ++i) {
    EXPECT_EQ(a.scaled_residuals[i], b.scaled_residuals[i]) << what << " residual " << i;
  }
}

TEST(DistSolve, DoubleTierShardsAgreeBitwiseAcrossWorldSizes) {
  Xoshiro256 rng(70);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs = {linalg::random_unit_vector(rng, 16)};
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  const auto two = solve_distributed(ctx, bs, options, 1);
  const auto four = solve_distributed(ctx, bs, options, 2);

  // Lockstep: every rank of a group returns the identical report.
  for (std::uint32_t r = 1; r < two.size(); ++r) {
    expect_reports_identical(two[0][0], two[r][0], "W=2 rank vs rank");
  }
  for (std::uint32_t r = 1; r < four.size(); ++r) {
    expect_reports_identical(four[0][0], four[r][0], "W=4 rank vs rank");
  }
  // The postselected subspace fixes the partition qubits, so both world
  // sizes reduce to the same one-lane replay arithmetic: bit-identical
  // double-path results.
  expect_reports_identical(two[0][0], four[0][0], "W=2 vs W=4");

  EXPECT_TRUE(two[0][0].converged);
  EXPECT_LE(two[0][0].scaled_residuals.back(), options.eps);

  // And the single-node solver agrees within the lane-count rounding.
  const auto want = solve_qsvt_ir(ctx, bs[0], options);
  EXPECT_EQ(two[0][0].converged, want.converged);
  EXPECT_EQ(two[0][0].iterations, want.iterations);
  for (std::size_t i = 0; i < want.x.size(); ++i) {
    EXPECT_NEAR(two[0][0].x[i], want.x[i], 1e-9) << "component " << i;
  }
}

TEST(DistSolve, AdaptiveRefinementRunsLockstepAcrossShards) {
  Xoshiro256 rng(71);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 2; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = base_options();
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  const auto per_rank = solve_distributed(ctx, bs, options, 1);
  for (std::uint32_t r = 1; r < per_rank.size(); ++r) {
    for (std::size_t l = 0; l < bs.size(); ++l) {
      expect_reports_identical(per_rank[0][l], per_rank[r][l], "adaptive rank vs rank");
    }
  }
  for (std::size_t l = 0; l < bs.size(); ++l) {
    const auto& rep = per_rank[0][l];
    EXPECT_TRUE(rep.converged) << "lane " << l;
    EXPECT_LE(rep.scaled_residuals.back(), options.eps) << "lane " << l;
    // The schedule really ran tiered on the shards: half solves happened
    // and at least one escalation fired, exactly like single-node.
    EXPECT_GT(rep.tier_solves[kTierHalf], 0u) << "lane " << l;
    EXPECT_GE(rep.precision_switches, 1u) << "lane " << l;
    EXPECT_TRUE(rep.dd128_verified) << "lane " << l;
  }

  // Single-node adaptive agrees on the solution within tier tolerance.
  for (std::size_t l = 0; l < bs.size(); ++l) {
    const auto want = solve_qsvt_ir(ctx, bs[l], options);
    ASSERT_EQ(per_rank[0][l].x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      EXPECT_NEAR(per_rank[0][l].x[i], want.x[i], 1e-9) << "lane " << l << " component " << i;
    }
  }
}

TEST(DistSolve, SessionStatsCountExchangesAndScheduleWin) {
  Xoshiro256 rng(72);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  std::vector<linalg::Vector<double>> bs = {linalg::random_unit_vector(rng, 8)};
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  qsim::exec::dist::LocalPeerGroup group(2);
  std::vector<std::shared_ptr<qsvt::dist::DistSolveSession>> sessions(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    sessions[r] = std::make_shared<qsvt::dist::DistSolveSession>(
        qsvt::dist::DistConfig{r, 1, group.channel(r)});
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = sessions[r];
        (void)solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), opts);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto& s = sessions[r]->stats();
    EXPECT_GT(s.solves, 0u) << "rank " << r;
    EXPECT_GT(s.exchange_rounds, 0u) << "rank " << r;
    EXPECT_GT(s.bytes_moved, 0u) << "rank " << r;
    // The scheduling pass must beat the classification-blind baseline on
    // the production QSVT program.
    EXPECT_LT(s.plan_scheduled_rounds, s.plan_naive_rounds) << "rank " << r;
  }
}

/// A session outlives one batch: refinement iterations across batches keep
/// the sequence counter strictly increasing, so a follow-up solve against
/// the same context just works.
TEST(DistSolve, SessionServesSequentialBatches) {
  Xoshiro256 rng(73);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  std::vector<linalg::Vector<double>> first = {linalg::random_unit_vector(rng, 8)};
  std::vector<linalg::Vector<double>> second = {linalg::random_unit_vector(rng, 8)};
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  qsim::exec::dist::LocalPeerGroup group(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<linalg::Vector<double>> results(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = std::make_shared<qsvt::dist::DistSolveSession>(
            qsvt::dist::DistConfig{r, 1, group.channel(r)});
        (void)solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(first), opts);
        auto reps =
            solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(second), opts);
        results[r] = std::move(reps[0].x);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  ASSERT_EQ(results[0].size(), results[1].size());
  for (std::size_t i = 0; i < results[0].size(); ++i) {
    EXPECT_EQ(results[0][i], results[1][i]) << "component " << i;
  }
}

}  // namespace
}  // namespace mpqls::solver
