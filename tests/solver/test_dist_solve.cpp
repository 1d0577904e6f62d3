// Distributed shard-group solves through the full Algorithm 2 refinement
// loop: W ranks each run solve_qsvt_ir_batch against the shared context
// with a DistSolveSession wired in, exchanging amplitudes over a
// LocalPeerGroup. Every rank must produce the identical report (the
// lockstep contract the adaptive schedule relies on), and 2- and 4-shard
// results must agree bitwise with each other and with the single-node
// batch solver: every tier group replays as a shard panel with the same
// lanes the single-node panel carries, so all reduce to the same panel
// arithmetic.
#include "solver/qsvt_ir.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <exception>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
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

/// Run the batch on `groups` shard groups of W ranks at once, each over its
/// own LocalPeerGroup, one thread per rank; returns every rank's reports
/// (outer index = group, then rank).
std::vector<std::vector<std::vector<QsvtIrReport>>> solve_groups(
    const qsvt::QsvtSolverContext& ctx, const std::vector<linalg::Vector<double>>& bs,
    const QsvtIrOptions& options, std::uint32_t world_log2, std::size_t groups) {
  const std::uint32_t world = 1u << world_log2;
  std::vector<std::unique_ptr<qsim::exec::dist::LocalPeerGroup>> peers;
  for (std::size_t g = 0; g < groups; ++g) {
    peers.push_back(std::make_unique<qsim::exec::dist::LocalPeerGroup>(world));
  }
  std::vector<std::vector<std::vector<QsvtIrReport>>> reports(
      groups, std::vector<std::vector<QsvtIrReport>>(world));
  std::vector<std::exception_ptr> errors(groups * world);
  std::vector<std::thread> threads;
  for (std::size_t g = 0; g < groups; ++g) {
    for (std::uint32_t r = 0; r < world; ++r) {
      threads.emplace_back([&, g, r] {
        try {
          QsvtIrOptions opts = options;
          opts.dist = std::make_shared<qsvt::dist::DistSolveSession>(
              qsvt::dist::DistConfig{r, world_log2, peers[g]->channel(r)});
          reports[g][r] = solve_qsvt_ir_batch(
              ctx, std::span<const linalg::Vector<double>>(bs), opts);
        } catch (...) {
          errors[g * world + r] = std::current_exception();
        }
      });
    }
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return reports;
}

/// Run the batch on W ranks over a LocalPeerGroup; returns every rank's
/// reports (outer index = rank).
std::vector<std::vector<QsvtIrReport>> solve_distributed(
    const qsvt::QsvtSolverContext& ctx, const std::vector<linalg::Vector<double>>& bs,
    const QsvtIrOptions& options, std::uint32_t world_log2) {
  return std::move(solve_groups(ctx, bs, options, world_log2, 1)[0]);
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
  // sizes — and the single-node solver — reduce to the same panel replay
  // arithmetic: bit-identical double-path results.
  expect_reports_identical(two[0][0], four[0][0], "W=2 vs W=4");
  expect_reports_identical(two[0][0], solve_qsvt_ir(ctx, bs[0], options), "W=2 vs single");

  EXPECT_TRUE(two[0][0].converged);
  EXPECT_LE(two[0][0].scaled_residuals.back(), options.eps);
}

TEST(DistSolve, AdaptiveRefinementRunsLockstepAcrossShards) {
  Xoshiro256 rng(71);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 2; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = base_options();
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  options.escalation.single_floor = 1e-6;  // escalate mid-trajectory
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
    // The schedule really ran tiered on the shards: single solves happened
    // and at least one escalation fired, exactly like single-node.
    EXPECT_GT(rep.tier_solves[kTierSingle], 0u) << "lane " << l;
    EXPECT_GE(rep.precision_switches, 1u) << "lane " << l;
    EXPECT_TRUE(rep.dd128_verified) << "lane " << l;
  }

  // The single-node batch replays the same two-lane panels at every tier,
  // so adaptive agrees bitwise too.
  const auto want =
      solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), options);
  for (std::size_t l = 0; l < bs.size(); ++l) {
    expect_reports_identical(per_rank[0][l], want[l], "adaptive dist vs single");
  }
}

TEST(DistSolve, SessionStatsCountExchangesAndScheduleWin) {
  Xoshiro256 rng(72);
  const auto A = linalg::random_with_cond(rng, 8, 5.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 3; ++k) bs.push_back(linalg::random_unit_vector(rng, 8));
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
  const auto plan = qsim::exec::dist::build_exchange_plan(ctx.programs->ir(), 1);

  qsim::exec::dist::LocalPeerGroup group(2);
  std::vector<std::shared_ptr<qsvt::dist::DistSolveSession>> sessions(2);
  std::vector<BatchSolveStats> batch_stats(2);
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    sessions[r] = std::make_shared<qsvt::dist::DistSolveSession>(
        qsvt::dist::DistConfig{r, 1, group.channel(r)});
    threads.emplace_back([&, r] {
      try {
        QsvtIrOptions opts = options;
        opts.dist = sessions[r];
        (void)solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), opts,
                                  &batch_stats[r]);
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
    const auto& b = batch_stats[r];
    // Dist sweeps are panel sweeps: the three lanes share every replay.
    EXPECT_GT(b.panels_executed, 0u) << "rank " << r;
    EXPECT_EQ(b.panel_lanes_total, s.solves) << "rank " << r;
    EXPECT_LT(b.panels_executed, s.solves) << "rank " << r;
    // Exchange rounds are paid per sweep, not per right-hand side.
    EXPECT_GT(s.exchange_rounds, 0u) << "rank " << r;
    EXPECT_EQ(s.exchange_rounds, plan.stats.scheduled_rounds * b.panels_executed)
        << "rank " << r;
    EXPECT_EQ(s.plan_scheduled_rounds, plan.stats.scheduled_rounds * b.panels_executed)
        << "rank " << r;
    EXPECT_GT(s.bytes_moved, 0u) << "rank " << r;
    // The scheduling pass must beat the classification-blind baseline on
    // the production QSVT program.
    EXPECT_LT(s.plan_scheduled_rounds, s.plan_naive_rounds) << "rank " << r;
  }
}

/// A postselection that no amplitude survives must fail every rank at
/// once with the real error, not leave the ranks that own none of the
/// surviving subspace waiting on the direction allreduce. A right-hand
/// side whose norm overflows to inf normalizes to the zero state, so the
/// allreduced probability is exactly 0 on every rank.
TEST(DistSolve, ZeroProbabilityFailsEveryRankPromptly) {
  Xoshiro256 rng(74);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  linalg::Vector<double> b(16);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = 1e308;
  const auto options = base_options();
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  // The exchange timeout is far above the bound asserted below, so a
  // rank left waiting on its peer shows up as a slow transport error.
  qsim::exec::dist::LocalPeerGroup group(2, std::chrono::milliseconds(30000));
  std::vector<std::string> errors(2);
  std::vector<std::thread> threads;
  const auto started = std::chrono::steady_clock::now();
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      qsvt::dist::DistSolveSession session(qsvt::dist::DistConfig{r, 1, group.channel(r)});
      try {
        (void)session.solve_directions(ctx, {&b}, qsvt::QpuPrecision::kDouble);
      } catch (const std::exception& e) {
        errors[r] = e.what();
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LT(std::chrono::steady_clock::now() - started, std::chrono::seconds(10));
  for (std::uint32_t r = 0; r < 2; ++r) {
    EXPECT_NE(errors[r].find("zero-probability postselection"), std::string::npos)
        << "rank " << r << ": " << errors[r];
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

/// Tiers any lane of `reports` solved at: the rank programs a group builds.
std::uint64_t tiers_used(const std::vector<QsvtIrReport>& reports) {
  std::uint64_t tiers = 0;
  for (int t = kTierSingle; t <= kTierDouble; ++t) {
    bool used = false;
    for (const auto& rep : reports) used = used || rep.tier_solves[t] > 0;
    tiers += used ? 1 : 0;
  }
  return tiers;
}

/// The exchange plan and the rank programs belong to the context, like
/// its single-node programs: the first job over a context builds them, and
/// every later job — each with fresh sessions, as the service makes per
/// job — reuses them and compiles nothing.
TEST(DistSolve, WarmContextCompilesNothingAcrossJobs) {
  Xoshiro256 rng(75);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 2; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = base_options();
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  options.escalation.single_floor = 1e-6;  // run both tiers
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);
  const auto& programs = *ctx.programs;
  EXPECT_EQ(programs.exchange_plans(), 0u);
  EXPECT_EQ(programs.rank_specializations(), 0u);

  const auto first = solve_distributed(ctx, bs, options, 1);
  const std::uint64_t tiers = tiers_used(first[0]);
  EXPECT_EQ(tiers, 2u);  // adaptive escalated from single to double
  EXPECT_EQ(programs.exchange_plans(), 1u);
  EXPECT_EQ(programs.rank_specializations(), 2 * tiers);
  // Shard replays never build a single-node program.
  EXPECT_EQ(programs.specializations(), 0u);

  const auto second = solve_distributed(ctx, bs, options, 1);
  EXPECT_EQ(programs.exchange_plans(), 1u);
  EXPECT_EQ(programs.rank_specializations(), 2 * tiers);
  EXPECT_EQ(programs.specializations(), 0u);
  for (std::uint32_t r = 0; r < 2; ++r) {
    for (std::size_t l = 0; l < bs.size(); ++l) {
      expect_reports_identical(first[r][l], second[r][l], "second job vs first");
    }
  }
}

/// Two shard groups solving over one context at once share its plan and
/// rank programs: each is built once, whichever group asks first, and both
/// groups reproduce the single-node batch bitwise.
TEST(DistSolve, ConcurrentGroupsShareOneContext) {
  Xoshiro256 rng(76);
  const auto A = linalg::random_with_cond(rng, 16, 10.0);
  std::vector<linalg::Vector<double>> bs;
  for (int k = 0; k < 2; ++k) bs.push_back(linalg::random_unit_vector(rng, 16));
  auto options = base_options();
  options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto ctx = qsvt::prepare_qsvt_solver(A, options.qsvt);

  const auto groups = solve_groups(ctx, bs, options, 1, 2);
  const auto want =
      solve_qsvt_ir_batch(ctx, std::span<const linalg::Vector<double>>(bs), options);
  for (const auto& group : groups) {
    for (const auto& rank : group) {
      for (std::size_t l = 0; l < bs.size(); ++l) {
        expect_reports_identical(rank[l], want[l], "concurrent group vs single");
      }
    }
  }
  EXPECT_EQ(ctx.programs->exchange_plans(), 1u);
  EXPECT_EQ(ctx.programs->rank_specializations(), 2 * tiers_used(want));
}

}  // namespace
}  // namespace mpqls::solver
