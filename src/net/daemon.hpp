// The networked front-end of the solver service: routes
//
//   POST   /v1/jobs            enqueue a job          -> 202 {job_id}
//                              (JSON body by default; Content-Type:
//                              application/x-mpqls-frame selects the
//                              binary codec in src/wire)
//                              queue full             -> 429 (+Retry-After)
//                              draining               -> 503
//                              malformed body         -> 400 (byte offset,
//                              never payload bytes)
//                              unknown Content-Type   -> 415
//                              cold matrix_ref        -> 404 (re-upload, retry)
//   GET    /v1/jobs            bounded listing        -> 200 (?limit=N)
//   GET    /v1/jobs/{id}       poll status/result     -> 200 / 404
//   GET    /v1/jobs/{id}/result  finished result only -> 200 / 404 / 409;
//                              Accept: application/x-mpqls-frame returns
//                              the binary encoding
//   GET    /v1/jobs/{id}/trace span-list trace JSON   -> 200 / 404
//                              (admission -> queue -> run -> prepare ->
//                              panel/rhs_solve -> replay rounds -> render)
//   GET    /v1/debug/slow      K worst-latency traces -> 200 (flight
//                              recorder; bounded by slow_jobs_retained)
//   DELETE /v1/jobs/{id}       cancel a queued job    -> 200 / 404 / 409
//   PUT    /v1/matrices        content-addressed upload -> 201/200
//                              {matrix_ref} (binary kMatrix frame or JSON
//                              matrix object; idempotent by content hash)
//   GET    /v1/matrices/{ref}  store probe            -> 200 / 404
//   POST   /v1/shard/exchange  peer amplitude frame in a distributed
//                              shard-group solve (kShardExchange) -> 200;
//                              malformed -> 400; buffer full -> 503
//   GET    /v1/healthz         liveness               -> 200 (includes the
//                              dist block: qubit cap, active shard groups)
//   GET    /v1/metrics         Prometheus text        -> 200
//
// onto SolverService. Handlers run on the HTTP event-loop thread and only
// parse (byte-capped), enqueue, or snapshot — request materialization
// (scenario matrices are O(n^3) to generate) and every solve happen on
// the service's pools, so the loop never blocks. Binary admission goes one
// step further: only the frame prefix (id + matrix kind/ref) is examined
// on the loop; full payload decode happens on the job worker. Consequence:
// schema defects in a well-formed body are admitted and surface as
// state=failed with the validation message, not as a 400. The exception is
// a cold matrix_ref, which IS checked at admission (a store lookup is one
// hash-map probe) so the client gets the 404 re-upload signal
// synchronously instead of a failed job.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "net/http_server.hpp"
#include "net/router.hpp"
#include "service/solver_service.hpp"

namespace mpqls::net {

struct DaemonOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 8080;  ///< 0 = ephemeral (tests); see port()
  service::ServiceOptions service;
  ParseLimits limits;  ///< request caps; bodies default to 8 MiB
  std::size_t max_connections = 256;
  std::chrono::seconds idle_timeout{60};
};

class SolverDaemon {
 public:
  explicit SolverDaemon(DaemonOptions options = {});

  /// Bind and serve; returns once the listener is up.
  void start();

  /// Maintenance mode: close job admission (POST answers 503) while the
  /// server keeps serving polls, listings and metrics — what a cluster
  /// coordinator sees as a saturated-forever worker and routes around.
  /// drain() later completes the shutdown.
  void close_admission() { draining_.store(true); }

  /// Graceful shutdown (the SIGINT/SIGTERM path): stop admitting jobs
  /// (POST answers 503), keep serving polls until every accepted job is
  /// terminal or `grace` expires, then stop the HTTP server. Returns true
  /// when the drain completed inside the grace window. Idempotent.
  bool drain(std::chrono::milliseconds grace = std::chrono::milliseconds(30000));

  std::uint16_t port() const { return server_.port(); }
  bool draining() const { return draining_.load(); }
  service::SolverService& service() { return service_; }

  /// The /v1/metrics payload (exposed for tests and CLI dumps).
  std::string metrics_text() const;

 private:
  HttpResponse handle(const HttpRequest& request);
  HttpResponse submit_job(const HttpRequest& request);
  HttpResponse shard_exchange(const HttpRequest& request);
  HttpResponse job_status(const PathParams& params);
  HttpResponse job_result(const HttpRequest& request, const PathParams& params);
  HttpResponse job_trace(const PathParams& params);
  HttpResponse debug_slow();
  HttpResponse cancel_job(const PathParams& params);
  HttpResponse list_jobs(const HttpRequest& request);
  HttpResponse upload_matrix(const HttpRequest& request);
  HttpResponse matrix_info(const PathParams& params);
  HttpResponse healthz() const;

  /// Traffic accounting for one body encoding (the mpqls_wire_* metric
  /// families, labeled encoding="json"/"binary"). Requests count job
  /// submissions and matrix uploads; responses count result payloads
  /// served. Atomics: handlers run on the event loop but metrics_text()
  /// may be called from any thread.
  struct EncodingCounters {
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> request_bytes{0};
    std::atomic<std::uint64_t> responses{0};
    std::atomic<std::uint64_t> response_bytes{0};
  };

  DaemonOptions options_;
  /// Rendezvous for distributed shard-group exchanges: POST
  /// /v1/shard/exchange deposits here; the job's HttpPeerChannel awaits.
  /// Declared before service_ so it outlives the pools (a draining job's
  /// channel may still be waiting on it during service destruction).
  qsim::exec::dist::ShardHub shard_hub_;
  service::SolverService service_;
  Router router_;
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopped_{false};
  Timer uptime_;
  EncodingCounters wire_json_;
  EncodingCounters wire_binary_;
  /// Wall clock of the submit handler itself (parse + admission on the
  /// event loop) — the stage="admission" series of mpqls_latency_seconds.
  /// The service owns the other stages (queue/prepare/solve/render/total).
  Histogram admission_latency_;
  // Declared last so it is destroyed FIRST: ~HttpServer joins the event
  // loop, which may still be dispatching into handle() — every member it
  // touches must outlive it (same pattern as SolverService's pools).
  HttpServer server_;
};

}  // namespace mpqls::net
