#include "service/solver_service.hpp"

#include <algorithm>
#include <future>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "qsvt/dist_solve.hpp"

namespace mpqls::service {

namespace {

std::size_t default_solve_threads(std::size_t requested) {
  if (requested != 0) return requested;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 2 : hw;
}

}  // namespace

const char* to_string(JobState state) {
  switch (state) {
    case JobState::kQueued: return "queued";
    case JobState::kRunning: return "running";
    case JobState::kDone: return "done";
    case JobState::kCancelled: return "cancelled";
    default: return "failed";
  }
}

/// Registry entry. Mutable fields are guarded by registry_mutex_; workers
/// hold a shared_ptr so pruning a record never races a running job.
struct SolverService::JobRecord {
  std::string job_id;
  std::uint64_t seq = 0;  ///< submission order, for newest-first listing
  JobState state = JobState::kQueued;
  std::string error;
  std::shared_ptr<const SolveResult> result;
  std::shared_ptr<const std::string> rendered;
  Timer since_submit;   ///< running clock, read while queued
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  Timer since_start;    ///< re-armed when the worker picks the job up
  trace::TraceContext trace;      ///< span buffer, never null once registered
  std::uint64_t queue_span = 0;   ///< open "queue" span, ended at pickup/cancel
};

SolverService::SolverService(ServiceOptions options)
    : options_(options),
      cache_(options.cache_capacity),
      matrix_store_(options.matrix_store_bytes),
      flight_recorder_(options.slow_jobs_retained),
      solve_pool_(default_solve_threads(options.solve_threads)),
      job_pool_(options.job_threads) {
  queue_stats_.max_pending = options.max_pending_jobs;
}

SolveResult SolverService::solve(const SolveRequest& request) {
  expects(!request.rhs.empty(), "service: request needs at least one right-hand side");

  // By-ref requests that reached us unresolved (direct service callers —
  // the daemon resolves at admission so it can answer 404 synchronously)
  // are looked up here; a cold ref fails the job with the miss message.
  SolveRequest resolved;
  const SolveRequest* req = &request;
  if (request.matrix_ref != 0 && !request.shared_A) {
    resolved = request;
    resolved.shared_A = matrix_store_.get(request.matrix_ref);
    if (!resolved.shared_A) throw store::MatrixRefMiss(request.matrix_ref);
    req = &resolved;
  }
  const linalg::Matrix<double>& A = req->matrix();
  expects(A.rows() == A.cols(), "service: square matrix required");
  for (const auto& b : req->rhs) {
    expects(b.size() == A.rows(), "service: rhs dimension mismatch");
  }

  const solver::QsvtIrOptions& options = req->options;

  Timer total;
  SolveResult result;
  result.id = request.id;
  // A by-ref submit skips the O(n^2) matrix hash: the ref IS that hash.
  result.fp.matrix_hash = req->matrix_ref != 0 ? req->matrix_ref : hash_matrix(A);
  result.fp.options_hash = hash_options(options.qsvt);

  Timer prep;
  bool hit = false;
  const auto ctx = [&] {
    MPQLS_TRACE_SPAN(prep_span, options.trace, "prepare", options.trace_span);
    auto prepared = cache_.get_or_prepare(result.fp, A, options.qsvt, &hit);
    prep_span.attr("cache", hit ? "hit" : "miss");
    return prepared;
  }();
  result.cache_hit = hit;
  result.prepare_seconds = prep.seconds();
  stage_latency_.prepare.observe(result.prepare_seconds);

  // The single-node memory wall: a gate-level job allocates a 2^width
  // statevector, of which a W = 2^k shard group stores only width - k
  // qubits per rank. The exact compiled width is known here; the daemon
  // additionally estimates it at admission so an over-cap submit dies
  // with a 413 instead of a failed job.
  if (options_.max_statevector_qubits != 0 &&
      options.qsvt.backend == qsvt::Backend::kGateLevel && ctx->circuit.has_value()) {
    std::size_t local_width = ctx->circuit->circuit.num_qubits();
    for (std::uint32_t w = req->shard.world; w > 1 && local_width > 0; w >>= 1) --local_width;
    expects(local_width <= options_.max_statevector_qubits,
            "service: statevector exceeds this worker's qubit cap "
            "(submit to a larger shard group)");
  }

  // Every job runs as a loop over chunks of its right-hand sides; each
  // chunk is one lockstep solve_qsvt_ir_batch (see there) and only the
  // chunk width and where it runs depend on the job:
  //  * a distributed shard-group job is ONE chunk of every RHS, run on
  //    this thread: every rank of the group must issue the identical
  //    sequence of exchanges, and chunking or solve-pool fan-out would let
  //    rank-local scheduling reorder them and deadlock the group. The
  //    adaptive loop inside stays in lockstep for free — every rank sees
  //    the identical allreduced outcomes and takes the identical tier
  //    decisions;
  //  * a clean gate-level job fans panels of `panel_width` lanes out
  //    across the solve pool, each replaying the cached program once per
  //    round (at width 1, one one-lane panel per RHS);
  //  * noise trajectories need per-gate injection the panel kernels
  //    cannot do, and the matrix-function backend has no program to
  //    replay: those fan out one RHS per chunk.
  const auto& qsvt_opts = options.qsvt;
  const bool noisy = qsvt_opts.noise.depolarizing_per_gate > 0.0 ||
                     qsvt_opts.noise.damping_per_gate > 0.0;
  const SolveRequest& active = *req;  ///< what the queued tasks reference
  std::shared_ptr<qsvt::dist::DistSolveSession> dist_session;
  std::size_t width = 1;
  bool panelize = false;
  if (active.shard.distributed()) {
    expects(static_cast<bool>(options_.shard_channel),
            "service: no shard transport configured on this instance");
    expects(qsvt_opts.backend == qsvt::Backend::kGateLevel,
            "service: distributed jobs are gate-level only");
    expects(!noisy, "service: noise trajectories are single-node only");
    expects(qsvt_opts.shots == 0, "service: shot sampling is single-node only");
    std::uint32_t world_log2 = 0;
    while ((1u << world_log2) < active.shard.world) ++world_log2;
    dist_session = std::make_shared<qsvt::dist::DistSolveSession>(qsvt::dist::DistConfig{
        active.shard.rank, world_log2, options_.shard_channel(active.shard)});
    width = active.rhs.size();
  } else if (qsvt_opts.backend == qsvt::Backend::kGateLevel && !noisy) {
    // Adaptive-precision jobs run most of their sweeps on the single tier,
    // whose lanes hold half a double lane's bytes and cost about half its
    // sweep time, so their panels carry twice the configured width at the
    // same per-sweep footprint.
    width = std::max<std::size_t>(1, qsvt_opts.precision == qsvt::QpuPrecision::kAdaptive
                                         ? options_.panel_width * 2
                                         : options_.panel_width);
    panelize = true;
  }

  struct GroupOutcome {
    std::vector<RhsResult> results;
    solver::BatchSolveStats stats;
  };
  const char* span_name = dist_session ? "dist_batch" : panelize ? "panel" : "rhs_solve";
  const auto run_chunk = [ctx, &active, &options, dist_session, panelize, span_name](
                             std::size_t begin, std::size_t count) {
    Timer t;
    GroupOutcome out;
    // Each chunk gets its own span; the replay rounds recorded inside
    // solve_qsvt_ir_batch nest under it via the options copy.
    MPQLS_TRACE_SPAN(span, options.trace, span_name, options.trace_span);
    if (dist_session) {
      span.attr("rank", static_cast<std::uint64_t>(active.shard.rank));
      span.attr("world", static_cast<std::uint64_t>(active.shard.world));
    } else if (panelize) {
      span.attr("lanes", static_cast<std::uint64_t>(count));
      span.attr("rhs_begin", static_cast<std::uint64_t>(begin));
    }
    solver::QsvtIrOptions opts = options;
    opts.dist = dist_session;
    if (span) opts.trace_span = span.id();
    auto reports = solver::solve_qsvt_ir_batch(
        *ctx, std::span<const linalg::Vector<double>>(active.rhs.data() + begin, count), opts,
        &out.stats);
    // A chunk's wall clock is shared work; report it amortized so per-RHS
    // and job-level timings stay additive.
    const double per_rhs_seconds = t.seconds() / static_cast<double>(count);
    out.results.reserve(reports.size());
    for (auto& rep : reports) out.results.push_back({std::move(rep), per_rhs_seconds});
    return out;
  };
  std::vector<std::future<GroupOutcome>> pending;
  for (std::size_t begin = 0; begin < active.rhs.size(); begin += width) {
    const std::size_t count = std::min(width, active.rhs.size() - begin);
    if (dist_session) {
      std::packaged_task<GroupOutcome()> inline_task([&] { return run_chunk(begin, count); });
      pending.push_back(inline_task.get_future());
      inline_task();
    } else {
      pending.push_back(solve_pool_.submit([run_chunk, begin, count] {
        return run_chunk(begin, count);
      }));
    }
  }

  result.all_converged = true;
  result.solves.reserve(request.rhs.size());
  double solve_seconds = 0.0;
  // Drain every future even if one throws: the queued tasks hold
  // references into `request`, so none may outlive this frame.
  std::exception_ptr first_error;
  for (auto& f : pending) {
    try {
      GroupOutcome group = f.get();
      result.panels_executed += group.stats.panels_executed;
      result.panel_lanes += group.stats.panel_lanes_total;
      for (auto& r : group.results) {
        result.all_converged = result.all_converged && r.report.converged;
        solve_seconds += r.solve_seconds;
        result.solves.push_back(std::move(r));
      }
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
  result.total_seconds = total.seconds();
  stage_latency_.solve.observe(solve_seconds);
  if (dist_session) {
    const auto& ds = dist_session->stats();
    result.shard_rank = active.shard.rank;
    result.shard_world = active.shard.world;
    result.dist_exchange_rounds = ds.exchange_rounds;
    result.dist_bytes_moved = ds.bytes_moved;
    result.dist_plan_naive_rounds = ds.plan_naive_rounds;
    result.dist_plan_scheduled_rounds = ds.plan_scheduled_rounds;
  }

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.jobs;
    stats_.rhs_solved += result.solves.size();
    stats_.solve_seconds_total += solve_seconds;
    stats_.prepare_seconds_total += result.prepare_seconds;
    stats_.panels_executed += result.panels_executed;
    stats_.panel_lanes_total += result.panel_lanes;
    for (const auto& s : result.solves) {
      for (std::size_t t = 0; t < solver::kTierCount; ++t) {
        stats_.tier_solves_total[t] += s.report.tier_solves[t];
        stats_.tier_iterations_total[t] += s.report.tier_iterations[t];
      }
      stats_.precision_switches_total += s.report.precision_switches;
    }
    if (!result.cache_hit && !result.solves.empty()) {
      // Program telemetry is per prepared context; count it once, on the
      // preparation that actually compiled it.
      const auto& rep0 = result.solves.front().report;
      stats_.program_compile_seconds_total += rep0.program_compile_seconds;
      stats_.program_ops_total += rep0.program_ops;
    }
    if (dist_session) {
      const auto& ds = dist_session->stats();
      ++stats_.dist.jobs;
      stats_.dist.solves += ds.solves;
      stats_.dist.exchange_rounds += ds.exchange_rounds;
      stats_.dist.bytes_moved += ds.bytes_moved;
      stats_.dist.exchange_seconds += ds.exchange_seconds;
      stats_.dist.local_seconds += ds.local_seconds;
      stats_.dist.plan_naive_rounds += ds.plan_naive_rounds;
      stats_.dist.plan_scheduled_rounds += ds.plan_scheduled_rounds;
    }
  }
  return result;
}

std::future<SolveResult> SolverService::submit(SolveRequest request) {
  return job_pool_.submit(
      [this, request = std::move(request)] { return solve(request); });
}

std::optional<std::string> SolverService::submit_job(SolveRequest request,
                                                     trace::TraceContext trace) {
  return submit_job(std::function<SolveRequest()>(
                        [request = std::move(request)]() mutable { return std::move(request); }),
                    {}, std::move(trace));
}

std::optional<std::string> SolverService::submit_job(
    std::function<SolveRequest()> make_request,
    std::function<std::string(const SolveResult&)> render, trace::TraceContext trace) {
  auto record = std::make_shared<JobRecord>();
  // Every registry job carries a trace: callers that minted one at the
  // front door (the daemon) hand it in, everyone else gets a fresh one
  // here — the flight recorder depends on traces existing unconditionally.
  record->trace = trace ? std::move(trace) : trace::make_trace();
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    if (options_.max_pending_jobs != 0 &&
        queue_stats_.queued + queue_stats_.running >= options_.max_pending_jobs) {
      ++queue_stats_.rejected;
      return std::nullopt;
    }
    record->seq = next_job_number_;
    record->job_id = "job-" + std::to_string(next_job_number_++);
    registry_[record->job_id] = record;
    ++queue_stats_.accepted;
    ++queue_stats_.queued;
  }
  record->queue_span = record->trace->begin_span("queue");

  job_pool_.submit(
      [this, record, make = std::move(make_request), render = std::move(render)]() mutable {
        {
          std::lock_guard<std::mutex> lock(registry_mutex_);
          // Cancelled while queued: the record is already terminal and its
          // queue accounting settled — skip the work entirely.
          if (record->state == JobState::kCancelled) return;
          record->state = JobState::kRunning;
          record->queue_seconds = record->since_submit.seconds();
          record->since_start = Timer();
          --queue_stats_.queued;
          ++queue_stats_.running;
        }
        // The kRunning transition above settles the cancel race: from here
        // this worker is the only writer of the queue span.
        record->trace->end_span(record->queue_span);
        record->queue_span = 0;
        stage_latency_.queue.observe(record->queue_seconds);
        trace::ScopedSpan run_span(record->trace, "run");
        try {
          SolveRequest request;
          {
            MPQLS_TRACE_SPAN(mat_span, record->trace, "materialize", run_span.id());
            request = make();
          }
          request.options.trace = record->trace;
          request.options.trace_span = run_span.id();
          auto result = std::make_shared<SolveResult>(solve(request));
          // Render here, outside any lock: serialization of a large
          // result is exactly the work the caller wants off its threads.
          std::shared_ptr<const std::string> rendered;
          if (render) {
            Timer render_timer;
            MPQLS_TRACE_SPAN(render_span, record->trace, "render", run_span.id());
            std::string text = render(*result);
            text.shrink_to_fit();  // the record keeps it: drop the growth capacity
            rendered = std::make_shared<const std::string>(std::move(text));
            render_span.finish();
            stage_latency_.render.observe(render_timer.seconds());
            // The rendered text is the record's one copy of the result.
            result.reset();
          }
          run_span.finish();
          finish_job(record, JobState::kDone, std::move(result), std::move(rendered), "");
        } catch (const std::exception& e) {
          run_span.finish();
          finish_job(record, JobState::kFailed, nullptr, nullptr, e.what());
        } catch (...) {
          run_span.finish();
          finish_job(record, JobState::kFailed, nullptr, nullptr, "unknown error");
        }
      });
  return record->job_id;
}

void SolverService::finish_job(const std::shared_ptr<JobRecord>& record, JobState final_state,
                               std::shared_ptr<const SolveResult> result,
                               std::shared_ptr<const std::string> rendered, std::string error) {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    record->state = final_state;
    record->result = std::move(result);
    record->rendered = std::move(rendered);
    record->error = std::move(error);
    record->run_seconds = record->since_start.seconds();
    --queue_stats_.running;
    if (final_state == JobState::kDone) {
      ++queue_stats_.done;
    } else {
      ++queue_stats_.failed;
    }
    terminal_order_.push_back(record->job_id);
    prune_terminal_locked();
  }
  registry_cv_.notify_all();
  // The record is terminal: queue/run_seconds have their final values and
  // no other thread writes them again.
  const double total_seconds = record->queue_seconds + record->run_seconds;
  stage_latency_.total.observe(total_seconds);
  trace::FlightRecord flight;
  flight.job_id = record->job_id;
  flight.state = to_string(final_state);
  flight.total_seconds = total_seconds;
  flight.queue_seconds = record->queue_seconds;
  flight.run_seconds = record->run_seconds;
  flight.trace = record->trace;
  flight_recorder_.record(std::move(flight));
}

void SolverService::prune_terminal_locked() {
  const std::size_t keep = options_.retained_jobs == 0 ? 1 : options_.retained_jobs;
  while (terminal_order_.size() > keep) {
    registry_.erase(terminal_order_.front());
    terminal_order_.pop_front();
  }
}

JobStatus SolverService::snapshot_locked(const JobRecord& r) const {
  JobStatus status;
  status.job_id = r.job_id;
  status.state = r.state;
  status.error = r.error;
  status.result = r.result;
  status.rendered = r.rendered;
  status.queue_seconds = r.state == JobState::kQueued ? r.since_submit.seconds() : r.queue_seconds;
  status.run_seconds = r.state == JobState::kRunning ? r.since_start.seconds() : r.run_seconds;
  status.trace = r.trace;
  return status;
}

std::optional<JobStatus> SolverService::job_status(const std::string& job_id) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  const auto it = registry_.find(job_id);
  if (it == registry_.end()) return std::nullopt;
  return snapshot_locked(*it->second);
}

CancelOutcome SolverService::cancel_job(const std::string& job_id) {
  {
    std::lock_guard<std::mutex> lock(registry_mutex_);
    const auto it = registry_.find(job_id);
    if (it == registry_.end()) return CancelOutcome::kNotFound;
    JobRecord& r = *it->second;
    if (r.state != JobState::kQueued) return CancelOutcome::kNotCancellable;
    r.state = JobState::kCancelled;
    r.queue_seconds = r.since_submit.seconds();
    // Close the open queue span: the worker will skip this job on pickup
    // (the kQueued check above settles the race — only one of cancel and
    // pickup transitions the state).
    if (r.trace) r.trace->end_span(r.queue_span, "cancelled=1");
    r.queue_span = 0;
    --queue_stats_.queued;
    ++queue_stats_.cancelled;
    terminal_order_.push_back(r.job_id);
    prune_terminal_locked();
  }
  // Cancellation frees queue capacity, which wait_idle watchers count.
  registry_cv_.notify_all();
  return CancelOutcome::kCancelled;
}

std::vector<JobStatus> SolverService::list_jobs(std::size_t limit) const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  std::vector<const JobRecord*> records;
  records.reserve(registry_.size());
  for (const auto& [id, record] : registry_) records.push_back(record.get());
  std::sort(records.begin(), records.end(),
            [](const JobRecord* a, const JobRecord* b) { return a->seq > b->seq; });
  if (records.size() > limit) records.resize(limit);
  std::vector<JobStatus> out;
  out.reserve(records.size());
  for (const JobRecord* r : records) out.push_back(snapshot_locked(*r));
  return out;
}

bool SolverService::wait_idle(std::chrono::milliseconds timeout) const {
  std::unique_lock<std::mutex> lock(registry_mutex_);
  return registry_cv_.wait_for(lock, timeout, [this] {
    return queue_stats_.queued == 0 && queue_stats_.running == 0;
  });
}

std::future<void> SolverService::run_on_job_pool(std::function<void()> fn) {
  return job_pool_.submit(std::move(fn));
}

SolverService::Stats SolverService::stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

SolverService::QueueStats SolverService::queue_stats() const {
  std::lock_guard<std::mutex> lock(registry_mutex_);
  return queue_stats_;
}

}  // namespace mpqls::service
