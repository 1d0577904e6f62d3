// The cluster front door: one coordinator daemon fronting N solver
// workers (each a stock SolverDaemon), sharding submits by
// matrix-fingerprint affinity.
//
//   POST   /v1/jobs       route by affinity      -> 202 {job_id: "w<k>-job-<n>"}
//                         (JSON or binary application/x-mpqls-frame
//                         bodies; frames route without a JSON parse)
//                         "dist_workers": W in a JSON body fans the job
//                         out to a W-member shard group (one submit per
//                         rank, 202 names rank 0; shard_jobs lists all);
//                         too few healthy workers -> 503 (binary frames
//                         carry no dist field and always route whole)
//                         every worker saturated -> 429/503 mirrored
//                         no worker reachable    -> 503
//   GET    /v1/jobs       merged bounded listing -> 200
//   GET    /v1/jobs/{id}  proxied poll           -> worker's answer
//   GET    /v1/jobs/{id}/result  proxied result  -> worker's answer
//                         (Accept forwarded, so binary results proxy too)
//   GET    /v1/jobs/{id}/trace  stitched trace   -> coordinator spans
//                         (admission, submit proxy) with the worker's
//                         span tree re-parented under the proxy span
//                         (see net/DESIGN.md, "Trace propagation")
//   DELETE /v1/jobs/{id}  proxied cancel         -> worker's answer
//   PUT    /v1/matrices   content-addressed upload, replicated to every
//                         reachable worker (ring home's answer mirrored)
//   GET    /v1/healthz    cluster liveness       -> 200 (never blocks)
//   GET    /v1/metrics    own counters + every worker's metrics,
//                         relabeled with worker="w<k>"
//
// Threading: the HTTP event loop never does outbound I/O — requests are
// deferred (HttpServer::AsyncHandler) onto a proxy pool whose threads
// speak to workers through deadline-bounded pooled HttpClients. Routing
// picks the rendezvous-ring candidate order for the job's affinity key
// (a content hash of the matrix + qsvt-options JSON, the request-side
// proxy of service::fingerprint); saturated (429/503) workers spill to
// the next candidate, transport failures additionally feed that worker's
// circuit breaker and retry on the next candidate with the failed worker
// excluded. A background prober keeps breaker state honest between
// submits. Submits are at-least-once under a response timeout: the
// attempt may have been admitted by the timed-out worker, but the id the
// client gets always names a worker that actually answered 202.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "cluster/breaker.hpp"
#include "cluster/ring.hpp"
#include "cluster/worker_client.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/thread_pool.hpp"
#include "common/trace.hpp"
#include "net/http_server.hpp"
#include "net/router.hpp"

namespace mpqls::cluster {

struct CoordinatorOptions {
  std::string bind_address = "127.0.0.1";
  std::uint16_t port = 0;  ///< 0 = ephemeral (tests); see port()
  std::vector<std::string> worker_urls;  ///< "host:port" per worker; >= 1
  net::ParseLimits limits;
  std::size_t max_connections = 256;
  std::chrono::seconds idle_timeout{60};

  std::size_t proxy_threads = 4;       ///< outbound-I/O workers
  std::size_t max_proxy_backlog = 128;  ///< deferred requests beyond this get 503
  /// Deadlines for proxied worker calls. Submits are admission-only on
  /// the worker (the solve runs async), so a short read budget is enough
  /// and is what makes failover prompt.
  net::Deadlines worker_deadlines{std::chrono::milliseconds(2000),
                                  std::chrono::milliseconds(5000),
                                  std::chrono::milliseconds(15000)};
  net::Deadlines probe_deadlines{std::chrono::milliseconds(500),
                                 std::chrono::milliseconds(1000),
                                 std::chrono::milliseconds(2000)};
  BreakerOptions breaker;
  std::chrono::milliseconds probe_interval{500};

  /// Affinity (rendezvous ring) routing; false = rotate workers
  /// round-robin, the cache-blind baseline the scaling bench compares
  /// against.
  bool affinity_routing = true;
  std::size_t max_idle_connections = 4;   ///< kept-warm sockets per worker
  std::size_t routing_table_capacity = 8192;  ///< job-id entries; oldest pruned
};

class Coordinator {
 public:
  explicit Coordinator(CoordinatorOptions options);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Bind and serve; returns once the listener and the prober are up.
  void start();

  /// Stop probing, stop the HTTP server, drain in-flight proxy tasks.
  /// Workers are NOT touched — they keep running whatever they accepted.
  void stop();

  std::uint16_t port() const { return server_.port(); }
  std::size_t worker_count() const { return workers_.size(); }

  /// Cumulative routing counters (all monotone).
  struct RoutingStats {
    std::uint64_t submits_accepted = 0;  ///< jobs some worker answered 202 for
    std::uint64_t affinity_hits = 0;     ///< accepted on the ring-preferred worker
    std::uint64_t spillovers = 0;        ///< accepted on a non-preferred worker
    std::uint64_t retries = 0;           ///< per-attempt failures/skips that moved on
    std::uint64_t saturated_rejects = 0;  ///< every candidate answered 429/503
    std::uint64_t unroutable = 0;         ///< no worker reachable at all
    std::uint64_t proxied_polls = 0;
    std::uint64_t proxied_cancels = 0;
    std::uint64_t proxied_uploads = 0;  ///< PUT /v1/matrices fan-outs
    std::uint64_t dist_submits = 0;     ///< shard groups fully admitted (all ranks 202)
    std::uint64_t dist_rejects = 0;     ///< dist submits refused (group incomplete/partial)
  };
  RoutingStats routing_stats() const;

  /// Point-in-time view of one worker (metrics + CLI rendering).
  struct WorkerSnapshot {
    std::string id;
    BreakerState breaker = BreakerState::kClosed;
    std::uint64_t breaker_trips = 0;
    std::size_t in_flight = 0;           ///< proxied requests on the wire now
    std::uint64_t submits_accepted = 0;
    std::uint64_t affinity_wins = 0;     ///< accepted jobs it was the ring home for
    std::uint64_t transport_failures = 0;
    bool probe_ok = true;
  };
  std::vector<WorkerSnapshot> workers() const;

  /// The /v1/metrics payload: own routing counters + per-worker gauges +
  /// every reachable worker's families relabeled with worker="w<k>".
  /// Does outbound I/O — never call from the event loop (the HTTP
  /// handler runs it on the proxy pool).
  std::string metrics_text();

 private:
  struct Worker;

  /// Event-loop entry: answers healthz inline, defers the rest.
  void handle(const net::HttpRequest& request, net::HttpServer::ResponseHandle responder);

  net::HttpResponse do_submit(const net::HttpRequest& request);
  /// Distributed submit (JSON body carried "dist_workers": W): form a
  /// W-member shard group from healthy workers, rewrite the body per rank
  /// (a "shard" block naming the group, rank and peer endpoints replaces
  /// "dist_workers"), fan the submits out, and answer with rank 0's
  /// cluster id. All-or-nothing: a rank that refuses admission triggers a
  /// best-effort cancel of the already-accepted ranks and a 502/503 —
  /// a partially-admitted group would deadlock in its first exchange.
  net::HttpResponse do_submit_dist(const net::HttpRequest& request, const Json& parsed,
                                   std::uint64_t key, trace::TraceId trace_id);
  /// Proxy GET/DELETE for one job; `suffix` extends the worker target
  /// ("" for the status poll, "/result" for the result route).
  net::HttpResponse do_job_request(const net::HttpRequest& request, const std::string& cluster_id,
                                   bool is_cancel, const std::string& suffix = "");
  net::HttpResponse do_job_trace(const net::HttpRequest& request, const std::string& cluster_id);
  net::HttpResponse do_list(const net::HttpRequest& request);
  net::HttpResponse do_upload(const net::HttpRequest& request);
  net::HttpResponse healthz_now();

  /// Outcome of one guarded call to a worker.
  struct WorkerCall {
    bool admitted = false;  ///< false: `admit` refused and nothing was sent
    bool ok = false;        ///< the request/response exchange completed
    net::HttpClient::Response response;
    std::string error;      ///< the transport failure when admitted && !ok
  };
  /// Every request the coordinator sends a worker goes through here.
  /// Under the worker's lock, run the call site's admission check `admit`
  /// (null = none) and count the call in `in_flight`; lease a pooled
  /// client for `send`, discarding it on ANY throw; then settle
  /// `in_flight` and the breaker (success, or failure + transport count).
  WorkerCall call_worker(Worker& worker, const std::function<bool(Worker&)>& admit,
                         const std::function<net::HttpClient::Response(net::HttpClient&)>& send);

  /// What the routing table remembers per cluster job id: the worker it
  /// landed on, plus the coordinator-side trace whose proxy span the
  /// worker's span tree is stitched under by do_job_trace. The trace
  /// costs one bounded span buffer per retained route entry.
  struct Route {
    std::size_t worker = 0;
    trace::TraceContext trace;
    std::uint64_t proxy_span = 0;
  };

  std::uint64_t affinity_key(const Json& parsed, const std::string& body) const;
  std::vector<std::size_t> candidate_order(std::uint64_t key);
  void remember_route(const std::string& cluster_id, Route route);
  std::optional<std::pair<std::size_t, std::string>> resolve(const std::string& cluster_id) const;
  std::optional<Route> routed_record(const std::string& cluster_id) const;
  void probe_loop();

  CoordinatorOptions options_;
  WorkerRing ring_;
  std::vector<std::unique_ptr<Worker>> workers_;
  net::Router router_;  ///< dispatched on proxy threads, not the event loop

  mutable std::mutex stats_mutex_;
  RoutingStats stats_;

  mutable std::mutex table_mutex_;
  std::unordered_map<std::string, Route> routed_;  ///< cluster job id -> route + trace
  std::deque<std::string> routed_order_;           ///< insertion order (pruning)

  /// Submit-handler wall clock (parse + routing + worker POST) — the
  /// stage="route" series of the coordinator's mpqls_latency_seconds.
  Histogram route_latency_;

  std::atomic<std::uint64_t> rotation_{0};      ///< round-robin cursor (random mode)
  std::atomic<std::uint64_t> group_seq_{0};     ///< shard-group id uniquifier
  std::atomic<std::size_t> proxy_backlog_{0};   ///< deferred requests in flight

  std::atomic<bool> probing_{false};
  std::mutex probe_mutex_;
  std::condition_variable probe_cv_;
  std::thread probe_thread_;

  // Declared after every member the proxy tasks touch and BEFORE the
  // server: destruction runs server first (its loop enqueues into the
  // pool), then the pool (its tasks read workers_/stats_), then the rest.
  ThreadPool proxy_pool_;
  net::HttpServer server_;
};

}  // namespace mpqls::cluster
