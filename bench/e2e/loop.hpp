// perf_e2e's closed loop: the in-process front door, one job's
// submit -> poll -> verify cycle over loopback HTTP, and a fixed-length
// measurement window driven by N blocking clients (each sends its next job
// only after the previous one has finished).
#pragma once

#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/test_cluster.hpp"
#include "common/json.hpp"
#include "common/trace.hpp"
#include "linalg/blas.hpp"
#include "measure.hpp"
#include "net/daemon.hpp"
#include "net/http_client.hpp"
#include "service/limits.hpp"
#include "spans.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace mpqls::bench::e2e {

/// A waiting client polls at this cadence.
inline constexpr auto kPollInterval = std::chrono::milliseconds(1);
/// A job not finished after this long counts as failed, which bounds every
/// run's length even if the system under test hangs.
inline constexpr double kJobTimeoutSeconds = 60.0;
/// Span slots of one traced job: a root, a submit and one span per poll,
/// enough for jobs of several seconds; later polls count as dropped.
inline constexpr std::size_t kBenchSpanCapacity = std::size_t{1} << 13;

/// The system under test, in process: one SolverDaemon with default
/// options on an ephemeral port, or a coordinator with `dist_workers`
/// default-option workers for the shard-group workload.
class FrontDoor {
 public:
  explicit FrontDoor(const Workload& w) {
    if (w.dist_workers == 0) {
      net::DaemonOptions options;
      options.port = 0;
      daemon_ = std::make_unique<net::SolverDaemon>(options);
      daemon_->start();
    } else {
      cluster::TestClusterOptions options;
      options.workers = w.dist_workers;
      cluster_ = std::make_unique<cluster::TestCluster>(options);
    }
  }
  ~FrontDoor() {
    if (daemon_) daemon_->drain(std::chrono::milliseconds(10000));
    if (cluster_) cluster_->stop();
  }
  FrontDoor(const FrontDoor&) = delete;
  FrontDoor& operator=(const FrontDoor&) = delete;

  std::uint16_t port() const { return daemon_ ? daemon_->port() : cluster_->port(); }

  /// Every service that solves: the daemon's, or each worker's.
  std::vector<const service::SolverService*> services() {
    if (daemon_) return {&daemon_->service()};
    std::vector<const service::SolverService*> out;
    for (std::size_t i = 0; i < cluster_->worker_count(); ++i) {
      out.push_back(&cluster_->worker(i).service());
    }
    return out;
  }

 private:
  std::unique_ptr<net::SolverDaemon> daemon_;
  std::unique_ptr<cluster::TestCluster> cluster_;
};

/// What one job did, as the client saw it.
struct JobOutcome {
  std::string error;        ///< empty iff the job was accepted, finished and verified
  double end_s = 0.0;       ///< result seen, from the window origin
  double latency_s = 0.0;   ///< POST sent -> poll that saw the rendered result
  std::size_t rhs = 0;
  double submit_s = 0.0;    ///< POST round trip
  std::vector<double> poll_s;  ///< every poll round trip
  std::size_t result_bytes = 0;
  // From the status and result JSON (rank 0 for a shard group).
  double queue_s = 0.0;
  double run_s = 0.0;
  double prepare_s = 0.0;
  bool cache_hit = false;
  std::uint64_t panels = 0;
  std::uint64_t panel_lanes = 0;
  double iterations = 0.0;  ///< refinement iterations per right-hand side
  std::array<std::uint64_t, 3> tier_solves{};  ///< half, single, double
  std::uint64_t dist_rounds = 0;
  std::uint64_t dist_bytes = 0;
  Json trace;  ///< stitched bench + server spans (traced jobs only)

  bool ok() const { return error.empty(); }
};

inline std::vector<double> solution_of(const Json& report) {
  std::vector<double> x;
  for (const auto& v : report.at("x").as_array()) x.push_back(v.as_number());
  return x;
}

/// Check a finished job against the bench's own system: every right-hand
/// side converged with ||b - A x|| / ||b|| <= eps recomputed from the
/// rendered x. Also copies the service telemetry into `out`. Returns the
/// failure, or empty.
inline std::string check_result(const JobInput& in, const Json& status, JobOutcome& out) {
  out.queue_s = status.number_or("queue_seconds", 0.0);
  out.run_s = status.number_or("run_seconds", 0.0);
  if (!status.contains("result")) return "done without a result";
  const Json& result = status.at("result");
  out.prepare_s = result.number_or("prepare_seconds", 0.0);
  out.cache_hit = result.bool_or("cache_hit", false);
  out.panels = result.uint_or("panels_executed", 0);
  out.panel_lanes = result.uint_or("panel_lanes", 0);
  if (result.contains("dist")) {
    out.dist_rounds = result.at("dist").uint_or("exchange_rounds", 0);
    out.dist_bytes = result.at("dist").uint_or("bytes_moved", 0);
  }
  const auto& solves = result.at("solves").as_array();
  if (solves.size() != in.rhs.size()) {
    return "result has " + std::to_string(solves.size()) + " solves for " +
           std::to_string(in.rhs.size()) + " right-hand sides";
  }
  double iterations = 0.0;
  for (std::size_t k = 0; k < solves.size(); ++k) {
    const Json& report = solves[k].at("report");
    if (!report.at("converged").as_bool()) return "rhs " + std::to_string(k) + " did not converge";
    const auto x = solution_of(report);
    if (x.size() != in.A->rows()) return "rhs " + std::to_string(k) + ": wrong solution length";
    const double omega =
        linalg::nrm2(linalg::residual(*in.A, x, in.rhs[k])) / linalg::nrm2(in.rhs[k]);
    if (!(omega <= kEps * (1.0 + 1e-6))) {
      return "rhs " + std::to_string(k) + ": residual " + std::to_string(omega) + " above eps";
    }
    iterations += report.at("iterations").as_number();
    const Json& tiers = report.at("precision_tiers");
    out.tier_solves[0] += tiers.uint_or("half_solves", 0);
    out.tier_solves[1] += tiers.uint_or("single_solves", 0);
    out.tier_solves[2] += tiers.uint_or("double_solves", 0);
  }
  out.iterations = iterations / static_cast<double>(solves.size());
  if (!result.bool_or("all_converged", false)) return "all_converged is false";
  return {};
}

/// Poll `id` every kPollInterval until it is done and return that status;
/// throws on a failed job, an error answer or a timeout. With `log`, each
/// poll's round trip is appended to it (and recorded as a "poll" span under
/// `root` of `tr`), as is the size of the answer carrying the result.
inline Json await_status(net::HttpClient& http, const std::string& id,
                         JobOutcome* log = nullptr, const trace::TraceContext& tr = {},
                         std::uint64_t root = 0) {
  const auto t0 = Clock::now();
  for (;;) {
    const auto p0 = Clock::now();
    net::HttpClient::Response resp;
    {
      trace::ScopedSpan span(tr, "poll", root);
      resp = http.get("/v1/jobs/" + id);
    }
    const auto p1 = Clock::now();
    if (log) log->poll_s.push_back(seconds_between(p0, p1));
    if (resp.status != 200) throw std::runtime_error("poll answered " + std::to_string(resp.status));
    Json status = Json::parse(resp.body);
    const std::string& state = status.at("state").as_string();
    if (state == "done") {
      if (log) log->result_bytes = resp.body.size();
      return status;
    }
    if (state == "failed" || state == "cancelled") {
      throw std::runtime_error("job " + state + ": " + status.string_or("error", ""));
    }
    if (seconds_between(t0, p1) > kJobTimeoutSeconds) {
      throw std::runtime_error("job not finished after timeout");
    }
    std::this_thread::sleep_for(kPollInterval);
  }
}

/// Every rank of a shard group must render the bitwise-identical solution.
inline std::string check_peer_ranks(net::HttpClient& http, const std::vector<std::string>& ranks,
                                    const Json& primary) {
  const auto& want = primary.at("result").at("solves").as_array();
  for (std::size_t r = 1; r < ranks.size(); ++r) {
    const Json peer = await_status(http, ranks[r]);
    const auto& got = peer.at("result").at("solves").as_array();
    if (got.size() != want.size()) return "rank " + std::to_string(r) + ": solve count differs";
    for (std::size_t k = 0; k < want.size(); ++k) {
      const auto a = solution_of(want[k].at("report"));
      const auto b = solution_of(got[k].at("report"));
      bool same = a.size() == b.size();
      for (std::size_t i = 0; same && i < a.size(); ++i) {
        same = std::bit_cast<std::uint64_t>(a[i]) == std::bit_cast<std::uint64_t>(b[i]);
      }
      if (!same) return "rank " + std::to_string(r) + ": x differs from rank 0 on rhs " + std::to_string(k);
    }
  }
  return {};
}

/// Submit one job, poll it every kPollInterval until the rendered result
/// arrives, then verify it. Latency runs from the POST to that poll;
/// verification and (when `traced`) the trace fetch happen after it.
inline JobOutcome run_job(net::HttpClient& http, const JobInput& in, Clock::time_point origin,
                          bool traced) {
  JobOutcome out;
  out.rhs = in.rhs.size();
  const trace::TraceContext tr = traced ? trace::make_trace({}, kBenchSpanCapacity) : nullptr;
  const std::uint64_t root = tr ? tr->begin_span("job") : 0;
  const double anchor_us = tr ? static_cast<double>(tr->now_ns()) * 1e-3 : 0.0;
  const auto t0 = Clock::now();
  try {
    net::HttpClient::Response resp;
    {
      trace::ScopedSpan span(tr, "submit", root);
      resp = http.post("/v1/jobs", in.body, in.content_type);
    }
    out.submit_s = seconds_between(t0, Clock::now());
    if (resp.status != 202) {
      throw std::runtime_error("submit answered " + std::to_string(resp.status) + ": " +
                               resp.body);
    }
    const Json ack = Json::parse(resp.body);
    const std::string id = ack.at("job_id").as_string();
    const Json status = await_status(http, id, &out, tr, root);
    const auto t1 = Clock::now();
    out.latency_s = seconds_between(t0, t1);
    out.end_s = seconds_between(origin, t1);
    if (tr) tr->end_span(root);

    out.error = check_result(in, status, out);
    if (out.ok() && ack.contains("shard_jobs")) {
      std::vector<std::string> ranks;
      for (const auto& r : ack.at("shard_jobs").as_array()) ranks.push_back(r.as_string());
      out.error = check_peer_ranks(http, ranks, status);
    }
    if (out.ok() && tr) {
      resp = http.get("/v1/jobs/" + id + "/trace");
      if (resp.status != 200) throw std::runtime_error("trace answered " + std::to_string(resp.status));
      out.trace = stitch(*tr, root, Json::parse(resp.body), anchor_us);
    }
  } catch (const std::exception& e) {
    out.error = std::string("failed: ") + e.what();
    out.end_s = seconds_between(origin, Clock::now());
  }
  return out;
}

/// Where jobs go: the front door's port and, for by-ref workloads, the
/// uploaded matrix and its store ref.
struct Target {
  std::uint16_t port = 0;
  std::shared_ptr<const linalg::Matrix<double>> matrix;
  std::uint64_t matrix_ref = 0;
};

/// The jobs of one window, per client in submission order.
struct Window {
  double seconds = 0.0;
  std::vector<std::vector<JobOutcome>> clients;
};

/// One fixed-length window: every client runs jobs back to back from
/// `index_base` on until `seconds` have passed (at most `max_jobs` each).
/// The job in flight when the window closes finishes, but ends after it.
inline Window run_window(const Workload& w, std::uint64_t seed, const Target& target,
                         double seconds, std::uint64_t index_base, bool traced,
                         std::size_t max_jobs = std::numeric_limits<std::size_t>::max()) {
  Window win;
  win.seconds = seconds;
  win.clients.resize(w.clients);
  const auto origin = Clock::now();
  const auto deadline = origin + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < w.clients; ++c) {
    threads.emplace_back([&, c] {
      net::HttpClient http("127.0.0.1", target.port);
      auto& jobs = win.clients[c];
      for (std::uint64_t i = index_base; jobs.size() < max_jobs && Clock::now() < deadline; ++i) {
        try {
          const JobInput in = make_job(w, seed, c, i, target.matrix, target.matrix_ref);
          jobs.push_back(run_job(http, in, origin, traced));
        } catch (const std::exception& e) {
          JobOutcome failed;
          failed.error = std::string("input generation: ") + e.what();
          jobs.push_back(std::move(failed));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  return win;
}

/// Daemon start, matrix upload and one warm-up job per client: the set-up
/// a user pays before the first warm job.
struct Setup {
  std::unique_ptr<FrontDoor> door;
  Target target;
  double seconds = 0.0;
  Window warmup;
};

inline Setup set_up(const Workload& w, std::uint64_t seed,
                    const std::shared_ptr<const linalg::Matrix<double>>& matrix) {
  Setup s;
  const auto t0 = Clock::now();
  s.door = std::make_unique<FrontDoor>(w);
  s.target.port = s.door->port();
  s.target.matrix = matrix;
  if (matrix) {
    net::HttpClient http("127.0.0.1", s.target.port);
    const auto resp = http.put("/v1/matrices", wire::encode_matrix(*matrix), wire::kContentType);
    if (resp.status != 200 && resp.status != 201) {
      throw std::runtime_error("matrix upload answered " + std::to_string(resp.status) + ": " +
                               resp.body);
    }
    s.target.matrix_ref =
        service::u64_from_hex(Json::parse(resp.body).at("matrix_ref").as_string());
  }
  s.warmup = run_window(w, seed, s.target, kJobTimeoutSeconds, 0, /*traced=*/false, 1);
  s.seconds = seconds_between(t0, Clock::now());
  return s;
}

}  // namespace mpqls::bench::e2e
