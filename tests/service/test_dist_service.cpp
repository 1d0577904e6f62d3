// Distributed shard-group jobs through the service front door: W
// SolverService instances (one per rank, LocalPeerGroup transport
// injected via ServiceOptions::shard_channel) solve the same request
// concurrently and must return identical reports on every rank, agree
// bitwise across world sizes, and agree bitwise with a single-node
// service whose panel width covers the whole job (both replay every tier
// group as one panel of the same lanes). Also the memory-wall contract: a
// qubit-capped service rejects a too-wide single-node job but admits the
// same job as a member of a large enough shard group, and the dist
// telemetry (result fields + Stats::dist) is populated.
#include "service/solver_service.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"

namespace mpqls::service {
namespace {

namespace dist = qsim::exec::dist;

SolveRequest dist_request(std::size_t n, std::size_t n_rhs, std::uint64_t seed) {
  Xoshiro256 rng(seed);
  SolveRequest req;
  req.id = "dist";
  req.A = linalg::random_with_cond(rng, n, 10.0);
  for (std::size_t k = 0; k < n_rhs; ++k) {
    req.rhs.push_back(linalg::random_unit_vector(rng, n));
  }
  req.options.eps = 1e-10;
  req.options.qsvt.eps_l = 1e-2;
  req.options.qsvt.backend = qsvt::Backend::kGateLevel;
  return req;
}

ServiceOptions rank_options(std::shared_ptr<dist::LocalPeerGroup> group,
                            std::size_t qubit_cap = 0) {
  ServiceOptions o;
  o.cache_capacity = 2;
  o.solve_threads = 1;
  o.job_threads = 1;
  o.panel_width = 1;
  o.max_statevector_qubits = qubit_cap;
  o.shard_channel = [group = std::move(group)](const ShardSpec& shard) {
    return group->channel(shard.rank);
  };
  return o;
}

/// Solve `base` as a W-rank shard group (one service per rank, threads in
/// lockstep over a LocalPeerGroup); returns every rank's result.
std::vector<SolveResult> solve_group(const SolveRequest& base, std::uint32_t world,
                                     std::size_t qubit_cap = 0) {
  auto group = std::make_shared<dist::LocalPeerGroup>(world);
  std::vector<std::unique_ptr<SolverService>> services;
  for (std::uint32_t r = 0; r < world; ++r) {
    services.push_back(std::make_unique<SolverService>(rank_options(group, qubit_cap)));
  }
  std::vector<SolveResult> results(world);
  std::vector<std::exception_ptr> errors(world);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      SolveRequest req = base;
      req.shard.group = 0xD157ull + world;
      req.shard.rank = r;
      req.shard.world = world;
      req.shard.peers.assign(world, "local");
      try {
        results[r] = services[r]->solve(req);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

void expect_results_identical(const SolveResult& a, const SolveResult& b, const char* what) {
  ASSERT_EQ(a.solves.size(), b.solves.size()) << what;
  for (std::size_t k = 0; k < a.solves.size(); ++k) {
    const auto& ra = a.solves[k].report;
    const auto& rb = b.solves[k].report;
    EXPECT_EQ(ra.iterations, rb.iterations) << what << " rhs " << k;
    EXPECT_EQ(ra.converged, rb.converged) << what << " rhs " << k;
    ASSERT_EQ(ra.x.size(), rb.x.size()) << what << " rhs " << k;
    for (std::size_t i = 0; i < ra.x.size(); ++i) {
      EXPECT_EQ(ra.x[i], rb.x[i]) << what << " rhs " << k << " component " << i;
    }
    EXPECT_EQ(ra.scaled_residuals, rb.scaled_residuals) << what << " rhs " << k;
  }
}

TEST(DistService, ShardGroupsMatchSingleNodeAcrossWorldSizes) {
  const auto base = dist_request(8, 2, 42);
  // One single-node panel covers the whole job, as one shard panel does.
  SolverService single(
      {.cache_capacity = 2, .solve_threads = 1, .job_threads = 1, .panel_width = 16});
  const auto want = single.solve(base);
  ASSERT_TRUE(want.all_converged);
  EXPECT_EQ(want.shard_world, 0u);  // single-node results carry no dist block

  const auto two = solve_group(base, 2);
  const auto four = solve_group(base, 4);

  // Lockstep: every rank of a group renders the identical result.
  for (std::uint32_t r = 1; r < 2; ++r) {
    expect_results_identical(two[0], two[r], "W=2 rank vs rank");
  }
  for (std::uint32_t r = 1; r < 4; ++r) {
    expect_results_identical(four[0], four[r], "W=4 rank vs rank");
  }
  // Both world sizes, and the single-node service, reduce to the same
  // panel replay arithmetic.
  expect_results_identical(two[0], four[0], "W=2 vs W=4");
  expect_results_identical(two[0], want, "W=2 vs single node");
  EXPECT_TRUE(two[0].all_converged);

  // Per-rank dist telemetry landed in the results.
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(four[r].shard_rank, r);
    EXPECT_EQ(four[r].shard_world, 4u);
    EXPECT_GT(four[r].dist_exchange_rounds, 0u);
    EXPECT_GT(four[r].dist_bytes_moved, 0u);
    // Dist jobs count their shard-panel sweeps like local panels, and
    // sweep exactly the panels the single-node job sweeps.
    EXPECT_GT(four[r].panels_executed, 0u);
    EXPECT_EQ(four[r].panels_executed, want.panels_executed);
    EXPECT_EQ(four[r].panel_lanes, want.panel_lanes);
    EXPECT_LE(four[r].dist_plan_scheduled_rounds, four[r].dist_plan_naive_rounds);
  }
}

TEST(DistService, ShardGroupShapePaysExchangeRoundsPerSweep) {
  // The perf_e2e shard_group shape: n = 64, kappa = 20, 8 RHS, adaptive,
  // W = 2. Each tier group is one shard-panel sweep, so the plan's
  // exchange rounds are paid once per sweep, not once per solve.
  Xoshiro256 rng(46);
  SolveRequest base;
  base.id = "shard-shape";
  base.A = linalg::random_with_cond(rng, 64, 20.0);
  for (int k = 0; k < 8; ++k) base.rhs.push_back(linalg::random_unit_vector(rng, 64));
  base.options.eps = 1e-11;
  base.options.qsvt.eps_l = 5e-2;
  base.options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  const auto ctx = qsvt::prepare_qsvt_solver(base.A, base.options.qsvt);
  const auto plan = dist::build_exchange_plan(ctx.programs->ir(), 1);

  const auto results = solve_group(base, 2);
  expect_results_identical(results[0], results[1], "rank vs rank");
  for (const auto& r : results) {
    EXPECT_TRUE(r.all_converged);
    std::uint64_t solves = 0;
    for (const auto& s : r.solves) {
      for (const auto n : s.report.tier_solves) solves += n;
    }
    EXPECT_GT(r.panels_executed, 0u);
    EXPECT_GT(r.panel_lanes, r.panels_executed);
    EXPECT_EQ(r.panel_lanes, solves);
    EXPECT_EQ(r.dist_exchange_rounds, plan.stats.scheduled_rounds * r.panels_executed);
    EXPECT_LT(r.dist_exchange_rounds, plan.stats.scheduled_rounds * solves);
  }
}

TEST(DistService, QubitCapRejectsSingleNodeButAdmitsShardGroup) {
  // n = 16 embeds as ceil_log2(16) + 3 = 7 circuit qubits. Capped at 5,
  // the single node must refuse (2^7 amplitudes would breach the wall);
  // a W = 4 group stores 7 - 2 = 5 qubits per rank and sails through.
  const auto base = dist_request(16, 1, 43);

  SolverService capped({.cache_capacity = 2,
                        .solve_threads = 1,
                        .job_threads = 1,
                        .panel_width = 1,
                        .max_statevector_qubits = 5});
  EXPECT_THROW(capped.solve(base), contract_violation);

  const auto results = solve_group(base, 4, /*qubit_cap=*/5);
  for (const auto& r : results) {
    EXPECT_TRUE(r.all_converged);
    EXPECT_EQ(r.shard_world, 4u);
  }

  // Sanity on the solution the capped group produced.
  SolverService single(
      {.cache_capacity = 2, .solve_threads = 1, .job_threads = 1, .panel_width = 1});
  const auto want = single.solve(base);
  for (std::size_t i = 0; i < want.solves[0].report.x.size(); ++i) {
    EXPECT_NEAR(results[0].solves[0].report.x[i], want.solves[0].report.x[i], 1e-9);
  }
}

TEST(DistService, DistJobsRequireATransportAndAccumulateStats) {
  // No shard_channel configured: the distributed job is refused with the
  // transport contract message, not a hang.
  SolverService bare(
      {.cache_capacity = 2, .solve_threads = 1, .job_threads = 1, .panel_width = 1});
  auto req = dist_request(8, 1, 44);
  req.shard.group = 1;
  req.shard.rank = 0;
  req.shard.world = 2;
  req.shard.peers.assign(2, "local");
  EXPECT_THROW(bare.solve(req), contract_violation);

  // With a transport, Stats::dist accumulates what the session measured.
  const auto base = dist_request(8, 1, 45);
  auto group = std::make_shared<dist::LocalPeerGroup>(2);
  std::vector<std::unique_ptr<SolverService>> services;
  for (std::uint32_t r = 0; r < 2; ++r) {
    services.push_back(std::make_unique<SolverService>(rank_options(group)));
  }
  std::vector<std::exception_ptr> errors(2);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 2; ++r) {
    threads.emplace_back([&, r] {
      SolveRequest rr = base;
      rr.shard.group = 2;
      rr.shard.rank = r;
      rr.shard.world = 2;
      rr.shard.peers.assign(2, "local");
      try {
        (void)services[r]->solve(rr);
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
    const auto stats = services[r]->stats().dist;
    EXPECT_EQ(stats.jobs, 1u) << "rank " << r;
    EXPECT_GT(stats.solves, 0u) << "rank " << r;
    EXPECT_GT(stats.exchange_rounds, 0u) << "rank " << r;
    EXPECT_GT(stats.bytes_moved, 0u) << "rank " << r;
    EXPECT_LE(stats.plan_scheduled_rounds, stats.plan_naive_rounds) << "rank " << r;
  }
}

}  // namespace
}  // namespace mpqls::service
