// SolverService end to end: batch solves share one prepared context and
// (at panel width 1) reproduce the single-solve path bitwise; wider
// panels match width 1 within kernel rounding; noisy and matrix-function
// jobs solve per RHS; concurrent scheduling does not perturb results
// under a fixed seed; the cache spans jobs; async submit works.
// (Bitwise holds at any thread count: every replay and reduction runs
// serially on its solve-pool thread, summing in amplitude order — see
// qsim/statevector.hpp.)
#include "service/solver_service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/lu.hpp"
#include "linalg/random_matrix.hpp"
#include "service/json_io.hpp"
#include "wire/codec.hpp"

namespace mpqls::service {
namespace {

solver::QsvtIrOptions ir_options(qsvt::Backend backend = qsvt::Backend::kGateLevel) {
  solver::QsvtIrOptions o;
  o.eps = 1e-10;
  o.qsvt.eps_l = 1e-2;
  o.qsvt.backend = backend;
  return o;
}

SolveRequest make_request(std::string id, std::size_t n, std::size_t n_rhs,
                          std::uint64_t seed,
                          qsvt::Backend backend = qsvt::Backend::kGateLevel) {
  Xoshiro256 rng(seed);
  SolveRequest req;
  req.id = std::move(id);
  req.A = linalg::random_with_cond(rng, n, 10.0);
  for (std::size_t k = 0; k < n_rhs; ++k) {
    req.rhs.push_back(linalg::random_unit_vector(rng, n));
  }
  req.options = ir_options(backend);
  return req;
}

TEST(SolverService, BatchMatchesSequentialBitwise) {
  const auto req = make_request("batch-vs-seq", 8, 3, 100);

  // Sequential reference: one prepared context, solves in order.
  const auto ctx = qsvt::prepare_qsvt_solver(req.A, req.options.qsvt);
  std::vector<solver::QsvtIrReport> reference;
  for (const auto& b : req.rhs) reference.push_back(solver::solve_qsvt_ir(ctx, b, req.options));

  // panel_width 1 fans one-lane panels out across the pool — the same
  // replay solve_qsvt_ir runs — so this asserts that concurrent
  // scheduling alone never perturbs results. Wider panels have their own
  // parity test below (tolerance — the lane-vectorized kernels round
  // differently).
  SolverService service(
      {.cache_capacity = 4, .solve_threads = 4, .job_threads = 1, .panel_width = 1});
  const auto result = service.solve(req);

  ASSERT_EQ(result.solves.size(), reference.size());
  EXPECT_TRUE(result.all_converged);
  for (std::size_t k = 0; k < reference.size(); ++k) {
    const auto& got = result.solves[k].report;
    const auto& want = reference[k];
    EXPECT_EQ(got.iterations, want.iterations);
    ASSERT_EQ(got.x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) {
      EXPECT_EQ(got.x[i], want.x[i]) << "rhs " << k << " component " << i;
    }
    ASSERT_EQ(got.scaled_residuals.size(), want.scaled_residuals.size());
    for (std::size_t i = 0; i < want.scaled_residuals.size(); ++i) {
      EXPECT_EQ(got.scaled_residuals[i], want.scaled_residuals[i]);
    }
  }
}

TEST(SolverService, PanelWidthOneMatchesWidthFour) {
  // 5 right-hand sides at panel width 4: one full panel plus a one-lane
  // tail, so this also covers the ragged-batch grouping.
  const auto req = make_request("width1-vs-width4", 8, 5, 500);

  SolverService narrow(
      {.cache_capacity = 2, .solve_threads = 2, .job_threads = 1, .panel_width = 1});
  SolverService panel(
      {.cache_capacity = 2, .solve_threads = 2, .job_threads = 1, .panel_width = 4});
  const auto want = narrow.solve(req);
  const auto got = panel.solve(req);

  EXPECT_GE(want.panels_executed, want.solves.size());  // one-lane sweeps, >= 1 per RHS
  EXPECT_EQ(want.panel_lanes, want.panels_executed);
  EXPECT_GE(got.panels_executed, 2u);  // the 4-lane group and the tail, per round
  EXPECT_GE(got.panel_lanes, 4u);
  EXPECT_EQ(panel.stats().panels_executed, got.panels_executed);
  EXPECT_EQ(panel.stats().panel_lanes_total, got.panel_lanes);

  ASSERT_EQ(got.solves.size(), want.solves.size());
  EXPECT_EQ(got.all_converged, want.all_converged);
  EXPECT_TRUE(got.all_converged);
  for (std::size_t k = 0; k < want.solves.size(); ++k) {
    const auto& g = got.solves[k].report;
    const auto& w = want.solves[k].report;
    EXPECT_EQ(g.iterations, w.iterations) << "rhs " << k;
    EXPECT_EQ(g.converged, w.converged) << "rhs " << k;
    ASSERT_EQ(g.x.size(), w.x.size());
    for (std::size_t i = 0; i < w.x.size(); ++i) {
      // The lane-vectorized kernels perform the one-lane arithmetic per
      // lane but round through different instruction sequences.
      EXPECT_NEAR(g.x[i], w.x[i], 1e-9) << "rhs " << k << " component " << i;
    }
    EXPECT_EQ(g.solves.size(), w.solves.size()) << "rhs " << k;
    EXPECT_EQ(g.total_be_calls, w.total_be_calls) << "rhs " << k;
  }
}

TEST(SolverService, OnlyNoisyAndMatrixJobsSolvePerRhs) {
  SolverService service(
      {.cache_capacity = 4, .solve_threads = 2, .job_threads = 1, .panel_width = 4});

  // Singleton job: a one-lane panel.
  const auto single = service.solve(make_request("single", 8, 1, 600));
  EXPECT_GE(single.panels_executed, 1u);

  // Shot-seeded readout: panels seed each lane's readout exactly like a
  // one-RHS solve, so shots do not change the arm.
  auto shots = make_request("shots", 8, 3, 800);
  shots.options.eps = 1e-2;
  shots.options.max_iterations = 8;
  shots.options.qsvt.shots = 200000;
  const auto shot_result = service.solve(shots);
  EXPECT_GE(shot_result.panels_executed, 1u);
  const std::uint64_t panel_sweeps = service.stats().panels_executed;
  EXPECT_EQ(panel_sweeps, single.panels_executed + shot_result.panels_executed);

  // Matrix-function backend: no compiled program to replay.
  const auto matrix =
      service.solve(make_request("matrix", 8, 3, 700, qsvt::Backend::kMatrixFunction));
  EXPECT_EQ(matrix.panels_executed, 0u);

  // Noise trajectories need per-gate injection.
  auto noisy = make_request("noisy", 8, 2, 900);
  noisy.options.eps = 1e-2;
  noisy.options.max_iterations = 4;
  noisy.options.qsvt.noise.depolarizing_per_gate = 1e-6;
  const auto noisy_result = service.solve(noisy);
  EXPECT_EQ(noisy_result.panels_executed, 0u);

  EXPECT_EQ(service.stats().panels_executed, panel_sweeps);
}

TEST(SolverService, ConcurrentBatchIsDeterministic) {
  const auto req = make_request("determinism", 8, 6, 200);
  SolverService a({.cache_capacity = 2, .solve_threads = 4, .job_threads = 1});
  SolverService b({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});

  const auto r1 = a.solve(req);
  const auto r2 = b.solve(req);  // single worker = fully sequential schedule

  ASSERT_EQ(r1.solves.size(), r2.solves.size());
  for (std::size_t k = 0; k < r1.solves.size(); ++k) {
    const auto& x1 = r1.solves[k].report.x;
    const auto& x2 = r2.solves[k].report.x;
    ASSERT_EQ(x1.size(), x2.size());
    for (std::size_t i = 0; i < x1.size(); ++i) EXPECT_EQ(x1[i], x2[i]);
  }
}

TEST(SolverService, SolutionsAreCorrectPerRhs) {
  const auto req = make_request("correctness", 8, 4, 300);
  SolverService service({.cache_capacity = 2, .solve_threads = 4, .job_threads = 1});
  const auto result = service.solve(req);
  ASSERT_TRUE(result.all_converged);
  for (std::size_t k = 0; k < req.rhs.size(); ++k) {
    const auto x_lu = linalg::lu_solve(req.A, req.rhs[k]);
    double err = 0.0;
    for (std::size_t i = 0; i < x_lu.size(); ++i) {
      err = std::max(err, std::abs(result.solves[k].report.x[i] - x_lu[i]));
    }
    EXPECT_LT(err, 1e-8) << "rhs " << k;
  }
}

TEST(SolverService, CacheSpansJobs) {
  const auto req = make_request("cache-1", 8, 1, 400, qsvt::Backend::kMatrixFunction);
  auto req2 = req;
  req2.id = "cache-2";

  SolverService service({.cache_capacity = 2, .solve_threads = 2, .job_threads = 1});
  const auto first = service.solve(req);
  const auto second = service.solve(req2);

  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(first.fp, second.fp);
  const auto cache = service.cache_stats();
  EXPECT_EQ(cache.misses, 1u);
  EXPECT_EQ(cache.hits, 1u);

  // Same matrix, different refinement target: the context is reusable
  // (same qsvt options), so it still hits.
  auto req3 = req;
  req3.id = "cache-3";
  req3.options.eps = 1e-6;
  const auto third = service.solve(req3);
  EXPECT_TRUE(third.cache_hit);

  // Different eps_l changes the fingerprint: miss.
  auto req4 = req;
  req4.id = "cache-4";
  req4.options.qsvt.eps_l = 1e-3;
  const auto fourth = service.solve(req4);
  EXPECT_FALSE(fourth.cache_hit);
}

TEST(SolverService, SubmitRunsJobsAsynchronously) {
  SolverService service({.cache_capacity = 4, .solve_threads = 2, .job_threads = 2});
  std::vector<std::future<SolveResult>> futures;
  for (int j = 0; j < 3; ++j) {
    futures.push_back(service.submit(
        make_request("async-" + std::to_string(j), 8, 2, 500 + j,
                     qsvt::Backend::kMatrixFunction)));
  }
  for (auto& f : futures) {
    const auto result = f.get();
    EXPECT_TRUE(result.all_converged) << result.id;
    EXPECT_EQ(result.solves.size(), 2u);
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.jobs, 3u);
  EXPECT_EQ(stats.rhs_solved, 6u);
}

TEST(SolverService, TelemetryIsPopulated) {
  const auto req = make_request("telemetry", 8, 2, 600);
  SolverService service({.cache_capacity = 2, .solve_threads = 2, .job_threads = 1});
  const auto result = service.solve(req);

  EXPECT_EQ(result.id, "telemetry");
  EXPECT_GT(result.total_seconds, 0.0);
  EXPECT_GE(result.prepare_seconds, 0.0);
  for (const auto& s : result.solves) {
    EXPECT_GT(s.solve_seconds, 0.0);
    EXPECT_GT(s.report.total_be_calls, 0u);
    // Per-job comm log: setup transfers plus one pair per iteration.
    const auto comm = hybrid::summarize(s.report.comm);
    EXPECT_GT(comm.setup_bytes, 0u);
    EXPECT_GT(comm.cpu_to_qpu_bytes, comm.qpu_to_cpu_bytes);
    EXPECT_EQ(comm.events, s.report.comm.events().size());
  }
}

TEST(SolverService, AdaptivePrecisionJobEndToEnd) {
  // The adaptive schedule reached through the service front door (as a
  // JSON submit would configure it): panelized lockstep batch, per-tier
  // telemetry in every report, and the per-precision counters accumulated
  // into the service stats the daemon exports as mpqls_precision_*.
  auto req = make_request("adaptive", 16, 4, 601);
  req.options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  req.options.escalation.single_floor = 1e-6;  // escalate mid-trajectory
  SolverService service({.cache_capacity = 2, .solve_threads = 2, .job_threads = 1,
                         .panel_width = 4});
  const auto result = service.solve(req);

  EXPECT_TRUE(result.all_converged);
  EXPECT_GE(result.panels_executed, 1u);  // adaptive jobs still panelize
  std::uint64_t single = 0, dbl = 0, switches = 0;
  for (const auto& s : result.solves) {
    const auto& rep = s.report;
    EXPECT_LE(rep.scaled_residuals.back(), req.options.eps);
    EXPECT_TRUE(rep.dd128_verified);
    EXPECT_GE(rep.precision_switches, 1u);
    single += rep.tier_solves[solver::kTierSingle];
    dbl += rep.tier_solves[solver::kTierDouble];
    switches += rep.precision_switches;
  }
  EXPECT_GT(single, 0u);  // the schedule started low

  const auto stats = service.stats();
  EXPECT_EQ(stats.tier_solves_total[solver::kTierSingle], single);
  EXPECT_EQ(stats.tier_solves_total[solver::kTierDouble], dbl);
  EXPECT_EQ(stats.precision_switches_total, switches);

  // Fixed-precision jobs land entirely in their tier.
  auto fixed = make_request("fixed", 16, 2, 602);
  (void)service.solve(fixed);
  const auto after = service.stats();
  EXPECT_EQ(after.tier_solves_total[solver::kTierSingle], single);  // unchanged
  EXPECT_GT(after.tier_solves_total[solver::kTierDouble], dbl);
}

TEST(SolverService, HalfPrecisionJobsRunTheSingleTier) {
  // The retired half tier is still admitted over JSON and binary frames;
  // either way the job solves bitwise like a single-precision one, with
  // every replay on the single tier.
  auto req = make_request("half", 16, 2, 603);
  req.options.qsvt.precision = qsvt::QpuPrecision::kHalf;
  const auto from_json = request_from_json(Json::parse(to_json(req).dump()));
  const auto from_wire = wire::decode_request(wire::encode_request(req));
  ASSERT_EQ(from_json.options.qsvt.precision, qsvt::QpuPrecision::kHalf);
  ASSERT_EQ(from_wire.options.qsvt.precision, qsvt::QpuPrecision::kHalf);
  auto single = req;
  single.options.qsvt.precision = qsvt::QpuPrecision::kSingle;

  SolverService service({.cache_capacity = 4, .solve_threads = 2, .job_threads = 1,
                         .panel_width = 4});
  const auto want = service.solve(single);
  for (const auto* half : {&from_json, &from_wire}) {
    const auto got = service.solve(*half);
    EXPECT_TRUE(got.all_converged);
    ASSERT_EQ(got.solves.size(), want.solves.size());
    for (std::size_t k = 0; k < want.solves.size(); ++k) {
      const auto& rep = got.solves[k].report;
      EXPECT_EQ(rep.x, want.solves[k].report.x);
      EXPECT_EQ(rep.tier_solves, want.solves[k].report.tier_solves);
      EXPECT_EQ(rep.tier_solves[solver::kTierSingle], rep.solves.size());
    }
  }
}

TEST(SolverService, HalfJobSharesTheSingleJobsContext) {
  // "half" runs the single tier, so it keys on the same cached context as
  // a single job on that matrix: the second job prepares nothing. Each
  // job still solves at the tier its own precision resolves to.
  auto single = make_request("single-first", 16, 2, 604);
  single.options.qsvt.precision = qsvt::QpuPrecision::kSingle;
  auto half = single;
  half.id = "half-second";
  half.options.qsvt.precision = qsvt::QpuPrecision::kHalf;

  SolverService service({.cache_capacity = 4, .solve_threads = 2, .job_threads = 1,
                         .panel_width = 4});
  const auto first = service.solve(single);
  const auto second = service.solve(half);
  EXPECT_FALSE(first.cache_hit);
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.fp, first.fp);
  for (const auto* result : {&first, &second}) {
    EXPECT_TRUE(result->all_converged);
    for (const auto& s : result->solves) {
      EXPECT_EQ(s.report.tier_solves[solver::kTierSingle], s.report.solves.size());
      EXPECT_EQ(s.report.tier_solves[solver::kTierDouble], 0u);
    }
  }
  ASSERT_EQ(second.solves.size(), first.solves.size());
  for (std::size_t k = 0; k < first.solves.size(); ++k) {
    EXPECT_EQ(second.solves[k].report.x, first.solves[k].report.x);
  }
}

TEST(SolverService, RejectsEmptyRequest) {
  SolverService service({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  SolveRequest req;
  req.A = linalg::Matrix<double>::identity(4);
  EXPECT_THROW(service.solve(req), contract_violation);
}

TEST(SolverService, JobRegistryLifecycleMatchesSynchronousSolve) {
  const auto req = make_request("registry", 8, 2, 700, qsvt::Backend::kMatrixFunction);
  SolverService service({.cache_capacity = 2, .solve_threads = 2, .job_threads = 1});

  const auto job_id = service.submit_job(req);
  ASSERT_TRUE(job_id.has_value());

  // Poll to terminal through the same snapshot API the daemon serves.
  std::optional<JobStatus> status;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  for (;;) {
    status = service.job_status(*job_id);
    ASSERT_TRUE(status.has_value());
    if (status->state == JobState::kDone || status->state == JobState::kFailed) break;
    ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "job never finished";
    std::this_thread::yield();
  }
  ASSERT_EQ(status->state, JobState::kDone);
  ASSERT_NE(status->result, nullptr);
  EXPECT_TRUE(status->error.empty());
  EXPECT_GE(status->queue_seconds, 0.0);
  EXPECT_GT(status->run_seconds, 0.0);

  // Same request through the synchronous path: bitwise-identical x.
  SolverService reference({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  const auto want = reference.solve(req);
  ASSERT_EQ(status->result->solves.size(), want.solves.size());
  for (std::size_t k = 0; k < want.solves.size(); ++k) {
    const auto& got_x = status->result->solves[k].report.x;
    const auto& want_x = want.solves[k].report.x;
    ASSERT_EQ(got_x.size(), want_x.size());
    for (std::size_t i = 0; i < want_x.size(); ++i) EXPECT_EQ(got_x[i], want_x[i]);
  }

  const auto queue = service.queue_stats();
  EXPECT_EQ(queue.accepted, 1u);
  EXPECT_EQ(queue.done, 1u);
  EXPECT_EQ(queue.queued + queue.running, 0u);
  EXPECT_TRUE(service.wait_idle(std::chrono::milliseconds(100)));
  EXPECT_FALSE(service.job_status("job-999").has_value());
}

TEST(SolverService, AdmissionControlRejectsBeyondBound) {
  SolverService service({.cache_capacity = 2,
                         .solve_threads = 1,
                         .job_threads = 1,
                         .max_pending_jobs = 2});
  // Occupy the single job worker so accepted jobs stay queued.
  std::promise<void> release;
  auto blocker = service.run_on_job_pool([gate = release.get_future().share()] { gate.wait(); });

  const auto req = make_request("bounded", 8, 1, 800, qsvt::Backend::kMatrixFunction);
  const auto id1 = service.submit_job(req);
  const auto id2 = service.submit_job(req);
  ASSERT_TRUE(id1 && id2);
  EXPECT_NE(*id1, *id2);

  const auto rejected = service.submit_job(req);
  EXPECT_FALSE(rejected.has_value());  // bound reached: backpressure, not growth
  EXPECT_EQ(service.queue_stats().rejected, 1u);
  EXPECT_EQ(service.queue_stats().queued, 2u);

  release.set_value();
  blocker.get();
  ASSERT_TRUE(service.wait_idle(std::chrono::milliseconds(60000)));
  EXPECT_EQ(service.queue_stats().done, 2u);

  // Capacity is back: the retry is admitted.
  EXPECT_TRUE(service.submit_job(req).has_value());
  EXPECT_TRUE(service.wait_idle(std::chrono::milliseconds(60000)));
}

TEST(SolverService, FailedJobCarriesTheErrorString) {
  SolverService service({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  SolveRequest req;
  req.id = "singular";
  req.A = linalg::Matrix<double>(4, 4);  // all zeros: preparation throws
  req.rhs.push_back(linalg::Vector<double>(4, 1.0));
  req.options.qsvt.backend = qsvt::Backend::kMatrixFunction;

  const auto job_id = service.submit_job(req);
  ASSERT_TRUE(job_id.has_value());
  ASSERT_TRUE(service.wait_idle(std::chrono::milliseconds(60000)));

  const auto status = service.job_status(*job_id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kFailed);
  EXPECT_FALSE(status->error.empty());
  EXPECT_EQ(status->result, nullptr);
  EXPECT_EQ(service.queue_stats().failed, 1u);
}

TEST(SolverService, TerminalRecordsArePrunedOldestFirst) {
  SolverService service({.cache_capacity = 2,
                         .solve_threads = 1,
                         .job_threads = 1,
                         .max_pending_jobs = 0,  // unbounded admission
                         .retained_jobs = 2});
  const auto req = make_request("prune", 8, 1, 900, qsvt::Backend::kMatrixFunction);
  std::vector<std::string> ids;
  for (int j = 0; j < 4; ++j) ids.push_back(service.submit_job(req).value());
  ASSERT_TRUE(service.wait_idle(std::chrono::milliseconds(60000)));

  // Only the 2 newest terminal records survive; older polls see "gone".
  EXPECT_FALSE(service.job_status(ids[0]).has_value());
  EXPECT_FALSE(service.job_status(ids[1]).has_value());
  EXPECT_TRUE(service.job_status(ids[2]).has_value());
  EXPECT_TRUE(service.job_status(ids[3]).has_value());
}

TEST(SolverService, CancelQueuedJobSkipsTheWorkAndSettlesAccounting) {
  SolverService service({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  std::promise<void> release;
  auto blocker = service.run_on_job_pool([gate = release.get_future().share()] { gate.wait(); });

  const auto req = make_request("cancel-me", 8, 1, 900, qsvt::Backend::kMatrixFunction);
  const auto id = service.submit_job(req);
  ASSERT_TRUE(id.has_value());

  EXPECT_EQ(service.cancel_job(*id), CancelOutcome::kCancelled);
  EXPECT_EQ(service.cancel_job(*id), CancelOutcome::kNotCancellable);  // already terminal
  EXPECT_EQ(service.cancel_job("job-999999"), CancelOutcome::kNotFound);

  // The cancellation alone makes the registry idle — capacity freed
  // without the worker ever touching the job.
  EXPECT_TRUE(service.wait_idle(std::chrono::milliseconds(0)));
  release.set_value();
  blocker.get();

  const auto status = service.job_status(*id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, JobState::kCancelled);
  EXPECT_EQ(status->result, nullptr);
  const auto stats = service.queue_stats();
  EXPECT_EQ(stats.cancelled, 1u);
  EXPECT_EQ(stats.queued, 0u);
  EXPECT_EQ(stats.done, 0u);
  EXPECT_EQ(service.stats().jobs, 0u) << "a cancelled job must never run";
}

TEST(SolverService, CancelRunningOrDoneJobIsRefused) {
  SolverService service({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  // The deferred-construction hook runs on the job worker, so blocking in
  // it holds the job deterministically in kRunning.
  std::promise<void> started;
  std::promise<void> release;
  auto gate = release.get_future().share();
  const auto id = service.submit_job(std::function<SolveRequest()>([&started, gate] {
    started.set_value();
    gate.wait();
    return make_request("run-then-done", 8, 1, 901, qsvt::Backend::kMatrixFunction);
  }));
  ASSERT_TRUE(id.has_value());
  started.get_future().wait();

  EXPECT_EQ(service.job_status(*id)->state, JobState::kRunning);
  EXPECT_EQ(service.cancel_job(*id), CancelOutcome::kNotCancellable) << "running is too late";

  release.set_value();
  ASSERT_TRUE(service.wait_idle(std::chrono::milliseconds(60000)));
  EXPECT_EQ(service.cancel_job(*id), CancelOutcome::kNotCancellable) << "done is too late";
  EXPECT_EQ(service.job_status(*id)->state, JobState::kDone);
}

TEST(SolverService, ListJobsIsNewestFirstAndBounded) {
  SolverService service({.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  const auto req = make_request("list", 8, 1, 902, qsvt::Backend::kMatrixFunction);
  std::vector<std::string> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(*service.submit_job(req));
  ASSERT_TRUE(service.wait_idle(std::chrono::milliseconds(60000)));

  const auto all = service.list_jobs(100);
  ASSERT_EQ(all.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(all[i].job_id, ids[3 - i]) << "newest first";
    EXPECT_EQ(all[i].state, JobState::kDone);
  }

  const auto bounded = service.list_jobs(2);
  ASSERT_EQ(bounded.size(), 2u);
  EXPECT_EQ(bounded[0].job_id, ids[3]);
  EXPECT_EQ(bounded[1].job_id, ids[2]);
  EXPECT_TRUE(service.list_jobs(0).empty());
}

}  // namespace
}  // namespace mpqls::service
