// The batched solver service (the deployment shape of the paper's
// amortization argument): circuit synthesis — SVD, block-encoding,
// inversion polynomial, QSP phases — happens once per distinct matrix and
// is cached; every right-hand side after that pays only the per-solve
// cost. Independent solves run concurrently on a worker pool; whole jobs
// can be submitted asynchronously, either as a future (submit) or through
// the admission-controlled job registry (submit_job) the network daemon
// polls.
//
// Thread-safety: all public methods may be called from any thread. Cached
// contexts are shared immutably (see QsvtSolverContext), and every solve
// report carries its own CommLog, so concurrent jobs never interleave
// telemetry.
#pragma once

#include <array>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/timer.hpp"
#include "common/trace.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "service/context_cache.hpp"
#include "service/request.hpp"
#include "store/matrix_store.hpp"

namespace mpqls::service {

struct ServiceOptions {
  std::size_t cache_capacity = 8;  ///< max resident prepared contexts
  /// Workers for per-RHS solves; 0 = hardware concurrency.
  std::size_t solve_threads = 0;
  /// Workers for submitted jobs (they orchestrate and wait on RHS solves,
  /// which run on the solve pool — two pools keep that wait deadlock-free).
  std::size_t job_threads = 2;
  /// Admission bound for submit_job: queued + running jobs beyond this are
  /// rejected (the daemon answers 429). 0 disables admission control.
  std::size_t max_pending_jobs = 64;
  /// Terminal job records kept for polling; the oldest finished records
  /// are dropped beyond this (a poll then sees 404, like any registry
  /// with finite memory).
  std::size_t retained_jobs = 1024;
  /// RHS lanes per execution panel: a clean gate-level job's right-hand
  /// sides are grouped into panels of this many lanes, each replaying the
  /// cached compiled program in ONE sweep (see qsim/exec/panel.hpp). Small
  /// powers of two vectorize best; 1 (or 0) replays one one-lane panel
  /// per RHS. Noisy and matrix-function jobs solve per RHS; shard-group
  /// jobs size their own panels (shard_panel_lanes, qsim/exec/dist).
  std::size_t panel_width = 8;
  /// Byte budget of the content-addressed matrix store (uploads via
  /// PUT /v1/matrices that jobs reference as {"matrix_ref": ...}). The
  /// store clamps this up so at least one max-dimension matrix fits.
  std::size_t matrix_store_bytes = 512u << 20;
  /// Slow-job flight recorder: full traces of the K worst finished jobs
  /// by total (queue + run) latency are retained for GET /v1/debug/slow.
  /// 0 disables the recorder.
  std::size_t slow_jobs_retained = 8;
  /// Hard cap on the LOCAL statevector width (qubits) a gate-level job may
  /// allocate here — the single-node memory wall a shard group breaks: a
  /// W = 2^k group stores k of the circuit's qubits in the rank index, so
  /// each worker allocates width - k qubits. Jobs over the cap are
  /// rejected (the daemon answers 413 at admission, the service throws at
  /// solve time). 0 = unlimited.
  std::size_t max_statevector_qubits = 0;
  /// Transport factory for distributed jobs: maps the request's ShardSpec
  /// to this rank's PeerChannel. The daemon installs an HTTP channel
  /// (POSTs to each peer's /v1/shard/exchange); tests inject
  /// LocalPeerGroup endpoints. Unset = distributed jobs are rejected.
  std::function<std::shared_ptr<qsim::exec::dist::PeerChannel>(const ShardSpec&)> shard_channel;
};

/// Lifecycle of a registry job. Terminal states are kDone, kFailed and
/// kCancelled (only queued jobs can be cancelled — a running solve is
/// never interrupted mid-refinement).
enum class JobState { kQueued, kRunning, kDone, kFailed, kCancelled };

const char* to_string(JobState state);

/// Outcome of cancel_job. kNotCancellable covers running and terminal
/// jobs alike: in both cases the job's work can no longer be unspent.
enum class CancelOutcome { kCancelled, kNotFound, kNotCancellable };

/// Point-in-time snapshot of a submitted job. A kDone job holds exactly
/// one copy of its result, kept for as long as the record is retained:
/// `rendered` when the job was submitted with a renderer, else `result`.
/// `error` is non-empty iff kFailed.
struct JobStatus {
  std::string job_id;
  JobState state = JobState::kQueued;
  std::string error;
  /// The solve's result; set iff kDone and no renderer was given.
  std::shared_ptr<const SolveResult> result;
  /// Output of the submit-time `render` callback (run once, on the job
  /// worker), trimmed to its length. Lets a front-end serve a terminal
  /// result repeatedly without re-serializing it per poll; the struct it
  /// was rendered from is dropped, so a front-end that needs another form
  /// rebuilds it from this text. Null when no renderer was given.
  std::shared_ptr<const std::string> rendered;
  double queue_seconds = 0.0;  ///< submit -> worker pickup (live while queued)
  double run_seconds = 0.0;    ///< worker pickup -> terminal (0 until then)
  /// The job's span buffer (every registry job has one — minted at
  /// submission when the caller supplied none). Readable while the job
  /// runs; GET /v1/jobs/{id}/trace serves it.
  trace::TraceContext trace;
};

class SolverService {
 public:
  explicit SolverService(ServiceOptions options = {});

  /// Execute a job synchronously: prepare-or-fetch the context, then fan
  /// the right-hand sides out to the solve pool. Results are ordered like
  /// `request.rhs` and bitwise-deterministic for a fixed seed regardless
  /// of scheduling.
  SolveResult solve(const SolveRequest& request);

  /// Queue a whole job; returns immediately.
  std::future<SolveResult> submit(SolveRequest request);

  /// Admission-controlled asynchronous submission: registers the job,
  /// queues it on the job pool, and returns its registry id — or nullopt
  /// when queued + running jobs have reached max_pending_jobs (the
  /// backpressure signal; nothing was enqueued). Never blocks on a solve.
  std::optional<std::string> submit_job(SolveRequest request,
                                        trace::TraceContext trace = {});

  /// Deferred-construction variant: `make_request` runs on the job
  /// worker, so expensive request materialization (scenario matrix
  /// generation from a network body) never runs on the caller's thread.
  /// If it throws, the job lands in kFailed with the exception message —
  /// the same place solve failures land. `render`, when given, runs once
  /// on the worker after a successful solve; its output is kept as
  /// JobStatus::rendered (e.g. the serialized result a poll endpoint
  /// serves verbatim) in place of the SolveResult, which is then dropped:
  /// a retained record holds one copy of its result, not two. A failed
  /// job keeps only its error. `trace` is the job's span buffer — the daemon
  /// passes the one it minted (or adopted) at the front door; when null,
  /// the service mints its own so every job is traceable.
  std::optional<std::string> submit_job(
      std::function<SolveRequest()> make_request,
      std::function<std::string(const SolveResult&)> render = {},
      trace::TraceContext trace = {});

  /// Snapshot of a submitted job; nullopt for ids never issued or already
  /// pruned from the retained-results window.
  std::optional<JobStatus> job_status(const std::string& job_id) const;

  /// Cancel a still-queued job: it transitions to kCancelled and the
  /// worker skips it on pickup. Running and terminal jobs are not
  /// cancellable; unknown/pruned ids report kNotFound.
  CancelOutcome cancel_job(const std::string& job_id);

  /// Snapshots of the most recently submitted jobs (newest first), capped
  /// at `limit` — the bounded listing GET /v1/jobs serves.
  std::vector<JobStatus> list_jobs(std::size_t limit) const;

  /// Block until every submit_job()-accepted job reached a terminal
  /// state, or the timeout expired. Returns true when idle — the drain
  /// barrier the daemon uses on SIGTERM.
  bool wait_idle(std::chrono::milliseconds timeout) const;

  /// Run an arbitrary task on the job pool (the same workers submit_job
  /// uses). Deterministic way for tests and maintenance hooks to occupy
  /// workers: registry jobs submitted afterwards stay kQueued behind it.
  std::future<void> run_on_job_pool(std::function<void()> fn);

  ContextCache::Stats cache_stats() const { return cache_.stats(); }

  /// The content-addressed matrix store by-ref submissions resolve
  /// against (uploads, admission-time lookups, metrics).
  store::MatrixStore& matrix_store() { return matrix_store_; }
  const store::MatrixStore& matrix_store() const { return matrix_store_; }

  struct Stats {
    std::uint64_t jobs = 0;
    std::uint64_t rhs_solved = 0;
    double solve_seconds_total = 0.0;    ///< summed per-RHS wall clock
    double prepare_seconds_total = 0.0;  ///< summed get_or_prepare wall clock
    /// Compiled-program telemetry, accumulated on cache misses (one
    /// compile per prepared context; hits replay without recompiling).
    double program_compile_seconds_total = 0.0;
    std::uint64_t program_ops_total = 0;
    /// Panel-execution telemetry: program sweeps that carried a panel of
    /// RHS lanes, and how many lanes in total. Mean lane occupancy is
    /// panel_lanes_total / (panels_executed * panel_width).
    std::uint64_t panels_executed = 0;
    std::uint64_t panel_lanes_total = 0;
    /// Precision-tier telemetry, summed over every solved RHS report
    /// (indexed by solver::kTierSingle/kTierDouble). Fixed-precision jobs
    /// land entirely in their one tier; adaptive jobs spread across the
    /// escalation schedule.
    std::array<std::uint64_t, solver::kTierCount> tier_solves_total{};
    std::array<std::uint64_t, solver::kTierCount> tier_iterations_total{};
    std::uint64_t precision_switches_total = 0;
    /// Distributed shard-group telemetry (the mpqls_dist_* series),
    /// accumulated from each dist job's session stats.
    struct DistStats {
      std::uint64_t jobs = 0;             ///< dist jobs this rank served
      std::uint64_t solves = 0;           ///< RHS lanes replayed across dist jobs
      std::uint64_t exchange_rounds = 0;  ///< pairwise exchange rounds paid
      std::uint64_t bytes_moved = 0;      ///< amplitude bytes shipped
      double exchange_seconds = 0.0;
      double local_seconds = 0.0;
      std::uint64_t plan_naive_rounds = 0;      ///< rounds before scheduling
      std::uint64_t plan_scheduled_rounds = 0;  ///< rounds as executed
    };
    DistStats dist;
  };
  Stats stats() const;

  /// Registry accounting for the async path (all counters cumulative,
  /// depths instantaneous).
  struct QueueStats {
    std::size_t queued = 0;
    std::size_t running = 0;
    std::uint64_t accepted = 0;
    std::uint64_t rejected = 0;  ///< admission-control refusals
    std::uint64_t done = 0;
    std::uint64_t failed = 0;
    std::uint64_t cancelled = 0;  ///< queued jobs cancelled before pickup
    std::size_t max_pending = 0;  ///< 0 = unbounded
  };
  QueueStats queue_stats() const;

  /// Per-stage latency histograms, all rendered under one
  /// `mpqls_latency_seconds{stage=...}` family by the daemon. `queue`,
  /// `render` and `total` are observed on the submit_job path only;
  /// `prepare` and `solve` cover every solve() including synchronous
  /// callers.
  struct StageLatency {
    Histogram queue;    ///< submit -> worker pickup
    Histogram prepare;  ///< get_or_prepare (context fetch or compile)
    Histogram solve;    ///< summed per-RHS refinement wall clock per job
    Histogram render;   ///< result serialization on the job worker
    Histogram total;    ///< submit -> terminal (queue + run)
  };
  const StageLatency& stage_latency() const { return stage_latency_; }

  /// The K-worst-jobs-by-latency recorder GET /v1/debug/slow serves.
  const trace::FlightRecorder& flight_recorder() const { return flight_recorder_; }

 private:
  struct JobRecord;

  void finish_job(const std::shared_ptr<JobRecord>& record, JobState final_state,
                  std::shared_ptr<const SolveResult> result,
                  std::shared_ptr<const std::string> rendered, std::string error);
  void prune_terminal_locked();
  JobStatus snapshot_locked(const JobRecord& record) const;

  ServiceOptions options_;
  ContextCache cache_;
  store::MatrixStore matrix_store_;
  // The pools are declared last so they are destroyed FIRST (reverse
  // declaration order): ~ThreadPool drains queued jobs, which still touch
  // the cache and stats members above — those must outlive the pools.
  mutable std::mutex stats_mutex_;
  Stats stats_{};
  StageLatency stage_latency_{};
  trace::FlightRecorder flight_recorder_;

  mutable std::mutex registry_mutex_;
  mutable std::condition_variable registry_cv_;  ///< signalled on terminal transitions
  std::unordered_map<std::string, std::shared_ptr<JobRecord>> registry_;
  std::deque<std::string> terminal_order_;  ///< finished ids, oldest first (pruning)
  QueueStats queue_stats_{};
  std::uint64_t next_job_number_ = 1;

  ThreadPool solve_pool_;
  ThreadPool job_pool_;
};

}  // namespace mpqls::service
