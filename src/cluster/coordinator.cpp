#include "cluster/coordinator.hpp"

#include <charconv>
#include <stdexcept>

#include "cluster/metrics_aggregate.hpp"
#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "common/timer.hpp"
#include "service/fingerprint.hpp"
#include "service/json_io.hpp"
#include "service/limits.hpp"
#include "wire/codec.hpp"

namespace mpqls::cluster {

namespace {

using net::HttpRequest;
using net::HttpResponse;

HttpResponse json_response(int status, Json body) {
  HttpResponse r;
  r.status = status;
  r.body = body.dump() + "\n";
  return r;
}

HttpResponse error_json(int status, const std::string& message) {
  Json j = Json::object();
  j["error"] = message;
  return json_response(status, std::move(j));
}

/// Mirror a worker's answer to the cluster client. Framing headers
/// (Content-Length, Connection) are regenerated on serialize; semantic
/// ones (Retry-After, Allow, Content-Type) pass through.
HttpResponse mirror(const net::HttpClient::Response& upstream) {
  HttpResponse r;
  r.status = upstream.status;
  r.body = upstream.body;
  for (const auto& [name, value] : upstream.headers) {
    if (name == "Content-Length" || name == "Connection") continue;
    if (name == "Content-Type") {
      r.content_type = value;
      continue;
    }
    r.headers.emplace_back(name, value);
  }
  return r;
}

/// Rewrite the worker's own job id to the cluster id in a JSON payload,
/// without parsing it: result bodies can be megabytes, and the daemon
/// always renders `"job_id":"job-N"` verbatim. A miss leaves the body
/// untouched (the client still has the cluster id it submitted with).
std::string rewrite_job_id(std::string body, const std::string& worker_id,
                           const std::string& cluster_id) {
  const std::string needle = "\"job_id\":\"" + worker_id + "\"";
  const auto pos = body.find(needle);
  if (pos != std::string::npos) {
    body.replace(pos, needle.size(), "\"job_id\":\"" + cluster_id + "\"");
  }
  return body;
}

}  // namespace

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed: return "closed";
    case BreakerState::kHalfOpen: return "half-open";
    default: return "open";
  }
}

struct Coordinator::Worker {
  Worker(WorkerEndpoint ep, const CoordinatorOptions& options)
      : endpoint(ep),
        pool(ep, options.worker_deadlines, options.max_idle_connections),
        probe_client(ep.host, ep.port, options.probe_deadlines),
        breaker(options.breaker) {}

  WorkerEndpoint endpoint;
  WorkerClientPool pool;
  net::HttpClient probe_client;  ///< prober thread only
  mutable std::mutex mutex;      ///< guards breaker + the counters below
  CircuitBreaker breaker;
  std::size_t in_flight = 0;
  std::uint64_t submits_accepted = 0;
  std::uint64_t affinity_wins = 0;
  std::uint64_t transport_failures = 0;
  bool probe_ok = true;
};

Coordinator::WorkerCall Coordinator::call_worker(
    Worker& worker, const std::function<bool(Worker&)>& admit,
    const std::function<net::HttpClient::Response(net::HttpClient&)>& send) {
  WorkerCall call;
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (admit && !admit(worker)) return call;
    ++worker.in_flight;
  }
  call.admitted = true;
  {
    auto lease = worker.pool.acquire();
    try {
      call.response = send(*lease);
      call.ok = true;
    } catch (const std::exception& e) {
      // Broader than HttpError on purpose: wait_fd can throw
      // std::system_error on poll failure, and ANY exception here must
      // still discard the mid-exchange client, settle in_flight, and
      // release a latched half-open trial — or the worker is excluded
      // forever and the poisoned connection returns to the pool.
      lease.discard();
      call.error = e.what();
    }
  }
  std::lock_guard<std::mutex> lock(worker.mutex);
  --worker.in_flight;
  if (call.ok) {
    worker.breaker.record_success();
  } else {
    worker.breaker.record_failure(std::chrono::steady_clock::now());
    ++worker.transport_failures;
  }
  return call;
}

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      ring_([&] {
        expects(!options_.worker_urls.empty(), "cluster: at least one worker url required");
        std::vector<std::string> ids;
        for (const auto& url : options_.worker_urls) ids.push_back(parse_endpoint(url).id);
        return WorkerRing(ids);
      }()),
      proxy_pool_(options_.proxy_threads),
      server_(
          net::HttpServer::Options{options_.bind_address, options_.port, options_.limits,
                                   options_.max_connections, options_.idle_timeout},
          net::HttpServer::AsyncHandler(
              [this](const HttpRequest& request, net::HttpServer::ResponseHandle responder) {
                handle(request, responder);
              })) {
  for (const auto& url : options_.worker_urls) {
    workers_.push_back(std::make_unique<Worker>(parse_endpoint(url), options_));
  }

  // The router runs on proxy threads (blocking outbound I/O is fine
  // there); only healthz bypasses it and answers on the event loop.
  router_.add("POST", "/v1/jobs",
              [this](const HttpRequest& request, const net::PathParams&) {
                return do_submit(request);
              });
  router_.add("GET", "/v1/jobs",
              [this](const HttpRequest& request, const net::PathParams&) {
                return do_list(request);
              });
  router_.add("GET", "/v1/jobs/{id}",
              [this](const HttpRequest& request, const net::PathParams& params) {
                return do_job_request(request, params.get("id"), /*is_cancel=*/false);
              });
  router_.add("GET", "/v1/jobs/{id}/result",
              [this](const HttpRequest& request, const net::PathParams& params) {
                return do_job_request(request, params.get("id"), /*is_cancel=*/false, "/result");
              });
  router_.add("GET", "/v1/jobs/{id}/trace",
              [this](const HttpRequest& request, const net::PathParams& params) {
                return do_job_trace(request, params.get("id"));
              });
  router_.add("DELETE", "/v1/jobs/{id}",
              [this](const HttpRequest& request, const net::PathParams& params) {
                return do_job_request(request, params.get("id"), /*is_cancel=*/true);
              });
  router_.add("PUT", "/v1/matrices",
              [this](const HttpRequest& request, const net::PathParams&) {
                return do_upload(request);
              });
  router_.add("GET", "/v1/metrics", [this](const HttpRequest&, const net::PathParams&) {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_text();
    return r;
  });
}

Coordinator::~Coordinator() { stop(); }

void Coordinator::start() {
  server_.start();
  probing_.store(true);
  probe_thread_ = std::thread([this] { probe_loop(); });
}

void Coordinator::stop() {
  if (probe_thread_.joinable()) {
    probing_.store(false);
    probe_cv_.notify_all();
    probe_thread_.join();
  }
  server_.stop();
}

void Coordinator::handle(const HttpRequest& request,
                         net::HttpServer::ResponseHandle responder) {
  if (request.method == "GET" && request.path == "/v1/healthz") {
    responder.respond(healthz_now());
    return;
  }
  // Admission control on the proxy pool: a backlog this deep means every
  // proxy thread is stuck on slow workers — shed load instead of queueing
  // unboundedly behind them.
  if (proxy_backlog_.load() >= options_.max_proxy_backlog) {
    HttpResponse r = error_json(503, "coordinator proxy backlog full; retry later");
    r.headers.emplace_back("Retry-After", "1");
    responder.respond(std::move(r));
    return;
  }
  ++proxy_backlog_;
  proxy_pool_.submit([this, request = HttpRequest(request), responder]() mutable {
    HttpResponse response;
    try {
      response = router_.dispatch(request);
    } catch (const std::exception& e) {
      response = error_json(500, e.what());
    } catch (...) {
      response = error_json(500, "internal error");
    }
    --proxy_backlog_;
    responder.respond(std::move(response));
  });
}

std::uint64_t Coordinator::affinity_key(const Json& parsed, const std::string& body) const {
  // The request-side stand-in for service::fingerprint: hash the matrix
  // description plus the preparation-relevant options. Two submits of the
  // same job JSON always key identically (and so land on the same warm
  // worker); semantically-equal-but-reformatted specs may key differently,
  // which only costs one extra preparation, never correctness.
  try {
    // A by-ref request keys on the matrix_ref itself: uploads route by
    // the same content hash, so the ref's ring home is the worker whose
    // store (and context cache) is warm for it.
    if (parsed.contains("matrix_ref")) {
      return service::u64_from_hex(parsed.at("matrix_ref").as_string());
    }
    Fnv1a h;
    if (parsed.contains("matrix")) {
      h.str(parsed.at("matrix").dump());
      if (parsed.contains("options")) h.str(parsed.at("options").dump());
      return h.digest();
    }
    return h.str(body).digest();
  } catch (const std::exception&) {
    return Fnv1a().str(body).digest();
  }
}

std::vector<std::size_t> Coordinator::candidate_order(std::uint64_t key) {
  if (options_.affinity_routing) return ring_.candidates(key);
  // Cache-blind baseline: pick a pseudo-random start worker and rotate
  // from there (still deterministic failover order). The start is a
  // mixed counter, NOT counter % N — a plain rotation against a periodic
  // workload aliases into accidental affinity, which would make the
  // baseline meaningless.
  const std::uint64_t z = mix64(rotation_.fetch_add(1) + 0x9E3779B97F4A7C15ull);
  std::vector<std::size_t> order(workers_.size());
  const std::size_t start = static_cast<std::size_t>(z % workers_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = (start + i) % workers_.size();
  return order;
}

HttpResponse Coordinator::do_submit(const HttpRequest& request) {
  const Timer route_timer;
  // Malformed bodies die here (mirroring the worker's 400 contract)
  // instead of being posted N times to the ring. A binary frame is never
  // JSON-parsed anywhere on this path: its affinity key streams straight
  // off the frame prefix (the matrix_ref, or the content hash of the
  // inline matrix), so by-ref submits key identically to the upload that
  // created the ref. JSON bodies parse once, reused for the key.
  const std::string* ctype = request.header("Content-Type");
  const bool is_frame = ctype != nullptr && wire::is_frame_content_type(*ctype);
  // Same adoption order as the worker front door: header, body-level id,
  // mint. Whatever wins here is what the worker adopts too — the
  // x-mpqls-trace header forwarded with the submit POST outranks the
  // body field on the worker, so one id names the job end to end.
  trace::TraceId trace_id{};
  if (const std::string* th = request.header("x-mpqls-trace")) {
    trace::TraceId::parse(*th, trace_id);
  }
  std::uint64_t key = 0;
  if (is_frame) {
    try {
      key = wire::request_affinity_key(request.body);
      if (trace_id.zero()) trace_id = wire::peek_request_trace(request.body);
    } catch (const wire::WireError& e) {
      return error_json(400, e.what());
    }
  } else {
    Json parsed_body;
    try {
      parsed_body = Json::parse(request.body);
    } catch (const JsonParseError& e) {
      return error_json(400, e.what());
    }
    if (trace_id.zero() && parsed_body.contains("trace_id") &&
        parsed_body.at("trace_id").is_string()) {
      trace::TraceId::parse(parsed_body.at("trace_id").as_string(), trace_id);
    }
    key = affinity_key(parsed_body, request.body);
    if (parsed_body.is_object() && parsed_body.contains("dist_workers")) {
      return do_submit_dist(request, parsed_body, key, trace_id);
    }
  }
  const std::string forward_type = ctype != nullptr ? *ctype : "application/json";
  const std::size_t preferred = ring_.home(key);
  const auto order = candidate_order(key);

  // Coordinator-side trace: the proxy span covers the candidate loop
  // (every attempt, spills included); the worker's own span tree is
  // stitched under it by do_job_trace.
  auto trace_ctx = trace::make_trace(trace_id);
  trace::ScopedSpan proxy_span(trace_ctx, "proxy");
  net::HeaderList trace_header;
  trace_header.emplace_back("x-mpqls-trace", trace_ctx->id().hex());
  std::uint64_t attempts = 0;

  bool saw_saturated = false;
  HttpResponse saturated_response;
  for (const std::size_t index : order) {
    Worker& worker = *workers_[index];
    const auto call = call_worker(
        worker,
        [](Worker& w) { return w.breaker.allow(std::chrono::steady_clock::now()); },
        [&](net::HttpClient& client) {
          ++attempts;
          return client.post("/v1/jobs", request.body, forward_type, trace_header);
        });
    if (!call.ok) {
      // Breaker open (excluded without burning a connect) or transport
      // failure: next ring candidate, this worker excluded.
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.retries;
      continue;
    }
    const auto& response = call.response;

    if (response.status == 202) {
      std::string worker_job_id;
      try {
        worker_job_id = Json::parse(response.body).at("job_id").as_string();
      } catch (const std::exception&) {
        // The worker admitted the job but we cannot name it — a 502 the
        // client can act on beats a generic 500 (the job itself is
        // orphaned on the worker either way).
        return error_json(502, "worker " + worker.endpoint.id + " answered 202 without a job id");
      }
      const std::string cluster_id = "w" + std::to_string(index) + "-" + worker_job_id;
      const bool is_affinity_hit = index == preferred;
      // Grab the span id BEFORE finish() (which releases it), then close
      // the proxy span at the moment the worker's 202 is in hand — its
      // duration is the submit round-trip, spills included.
      const std::uint64_t proxy_span_id = proxy_span.id();
      // The ring name ("w<k>"), not endpoint.id: it matches the cluster
      // job-id prefix and the worker="..." metric labels.
      proxy_span.attr("worker", "w" + std::to_string(index));
      proxy_span.attr("attempts", attempts);
      if (!is_affinity_hit) proxy_span.attr("spillover", std::uint64_t{1});
      proxy_span.finish();
      remember_route(cluster_id, Route{index, trace_ctx, proxy_span_id});
      route_latency_.observe(route_timer.seconds());
      {
        std::lock_guard<std::mutex> lock(worker.mutex);
        ++worker.submits_accepted;
        if (is_affinity_hit) ++worker.affinity_wins;
      }
      {
        std::lock_guard<std::mutex> stats_lock(stats_mutex_);
        ++stats_.submits_accepted;
        if (is_affinity_hit) {
          ++stats_.affinity_hits;
        } else {
          ++stats_.spillovers;
        }
      }

      Json j = Json::object();
      j["job_id"] = cluster_id;
      j["state"] = "queued";
      j["status_url"] = "/v1/jobs/" + cluster_id;
      j["worker"] = worker.endpoint.id;
      j["trace_id"] = trace_ctx->id().hex();
      return json_response(202, std::move(j));
    }

    if (response.status == 429 || response.status == 503) {
      // Saturated or draining: the worker is alive, this is spillover
      // pressure, not a breaker event.
      saw_saturated = true;
      saturated_response = mirror(response);
      std::lock_guard<std::mutex> stats_lock(stats_mutex_);
      ++stats_.retries;
      continue;
    }

    if (response.status >= 400 && response.status < 500) {
      return mirror(response);  // deterministic rejection (schema, size): don't spread it
    }

    // 5xx: treat like saturation — try the next candidate.
    saw_saturated = true;
    saturated_response = mirror(response);
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.retries;
  }

  std::lock_guard<std::mutex> stats_lock(stats_mutex_);
  if (saw_saturated) {
    ++stats_.saturated_rejects;
    return saturated_response;  // mirror the 429/503 (keeps the Retry-After)
  }
  ++stats_.unroutable;
  return error_json(503, "no cluster worker reachable");
}

HttpResponse Coordinator::do_submit_dist(const HttpRequest& request, const Json& parsed,
                                         std::uint64_t key, trace::TraceId trace_id) {
  const Timer route_timer;
  std::size_t world = 0;
  try {
    world = static_cast<std::size_t>(parsed.at("dist_workers").as_uint());
  } catch (const std::exception& e) {
    return error_json(400, std::string("dist_workers: ") + e.what());
  }
  if (world < 2 || world > 64 || (world & (world - 1)) != 0) {
    return error_json(400, "dist_workers must be a power of two in [2, 64]");
  }
  if (parsed.contains("shard")) {
    return error_json(400, "dist_workers and an explicit shard block are mutually exclusive");
  }

  // Membership in ring order for the job's affinity key: resubmits of
  // the same job re-form the same group (warm context caches on every
  // rank). Health filter mirrors do_submit — skip open breakers and
  // failed probes — but runs BEFORE any admission POST: a
  // partially-admitted group is worse than useless (its admitted ranks
  // would block in their first exchange until the await timeout), so the
  // group is formed all-or-nothing.
  std::vector<std::size_t> members;
  for (const std::size_t index : candidate_order(key)) {
    Worker& worker = *workers_[index];
    std::lock_guard<std::mutex> lock(worker.mutex);
    if (!worker.probe_ok) continue;
    if (worker.breaker.state(std::chrono::steady_clock::now()) == BreakerState::kOpen) continue;
    members.push_back(index);
    if (members.size() == world) break;
  }
  if (members.size() < world) {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.dist_rejects;
    return error_json(503, "shard group incomplete: " + std::to_string(world) +
                               " workers required, " + std::to_string(members.size()) +
                               " healthy");
  }

  // The group id names this one solve's rendezvous on every member's
  // exchange hub. Mixing a monotone sequence in keeps two concurrent
  // submits of the SAME job (same key) in disjoint groups.
  const std::uint64_t group =
      mix64(key ^ mix64(group_seq_.fetch_add(1) + 0x9E3779B97F4A7C15ull));
  std::vector<std::string> peers;
  peers.reserve(world);
  for (const std::size_t index : members) peers.push_back(workers_[index]->endpoint.id);

  auto trace_ctx = trace::make_trace(trace_id);
  trace::ScopedSpan proxy_span(trace_ctx, "dist_proxy");
  proxy_span.attr("world", static_cast<std::uint64_t>(world));
  net::HeaderList trace_header;
  trace_header.emplace_back("x-mpqls-trace", trace_ctx->id().hex());

  // Fan the admissions out, rank by rank. Each rank's body is the
  // original minus "dist_workers" plus its own "shard" block; the peers
  // list is identical everywhere (rank r's own endpoint included, at
  // position r), which is what lets every member compute the same
  // exchange schedule.
  std::vector<std::string> worker_job_ids(world);
  std::size_t admitted = 0;
  std::string failure;
  for (std::size_t rank = 0; rank < world; ++rank) {
    Json body = parsed;
    body.as_object().erase("dist_workers");
    Json shard = Json::object();
    shard["group"] = service::u64_hex(group);
    shard["rank"] = static_cast<std::uint64_t>(rank);
    shard["world"] = static_cast<std::uint64_t>(world);
    Json peer_list = Json::array();
    for (const auto& p : peers) peer_list.push_back(p);
    shard["peers"] = std::move(peer_list);
    body["shard"] = std::move(shard);

    Worker& worker = *workers_[members[rank]];
    // No admission check: membership already filtered on health.
    const auto call = call_worker(worker, nullptr, [&](net::HttpClient& client) {
      return client.post("/v1/jobs", body.dump(), "application/json", trace_header);
    });
    if (!call.ok) {
      failure = "rank " + std::to_string(rank) + " (" + worker.endpoint.id +
                ") unreachable: " + call.error;
      break;
    }
    const auto& response = call.response;
    if (response.status != 202) {
      failure = "rank " + std::to_string(rank) + " (" + worker.endpoint.id +
                ") refused admission with status " + std::to_string(response.status);
      break;
    }
    try {
      worker_job_ids[rank] = Json::parse(response.body).at("job_id").as_string();
    } catch (const std::exception&) {
      failure = "rank " + std::to_string(rank) + " (" + worker.endpoint.id +
                ") answered 202 without a job id";
      break;
    }
    ++admitted;
  }

  if (admitted < world) {
    // Unwind: cancel what was admitted so no rank sits waiting in its
    // first exchange until the await timeout. Best effort — a rank whose
    // job already started answers 409 and fails on its own via the
    // transport timeout, which is the designed backstop.
    for (std::size_t rank = 0; rank < admitted; ++rank) {
      Worker& worker = *workers_[members[rank]];
      auto lease = worker.pool.acquire();
      try {
        lease->del("/v1/jobs/" + worker_job_ids[rank]);
      } catch (const std::exception&) {
        lease.discard();
      }
    }
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.dist_rejects;
    return error_json(502, "shard group admission failed: " + failure);
  }

  const std::string cluster_id =
      "w" + std::to_string(members[0]) + "-" + worker_job_ids[0];
  const std::uint64_t proxy_span_id = proxy_span.id();
  proxy_span.attr("worker", "w" + std::to_string(members[0]));
  proxy_span.finish();
  // Every rank's job is pollable through the coordinator; rank 0's id is
  // the primary (its result is what the client reads — all ranks render
  // identical solutions, see qsvt/dist_solve).
  for (std::size_t rank = 0; rank < world; ++rank) {
    remember_route("w" + std::to_string(members[rank]) + "-" + worker_job_ids[rank],
                   Route{members[rank], rank == 0 ? trace_ctx : nullptr,
                         rank == 0 ? proxy_span_id : 0});
  }
  route_latency_.observe(route_timer.seconds());
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.dist_submits;
    stats_.submits_accepted += world;
  }

  Json j = Json::object();
  j["job_id"] = cluster_id;
  j["state"] = "queued";
  j["status_url"] = "/v1/jobs/" + cluster_id;
  j["shard_group"] = service::u64_hex(group);
  j["shard_world"] = static_cast<std::uint64_t>(world);
  Json shard_jobs = Json::array();
  for (std::size_t rank = 0; rank < world; ++rank) {
    shard_jobs.push_back("w" + std::to_string(members[rank]) + "-" + worker_job_ids[rank]);
  }
  j["shard_jobs"] = std::move(shard_jobs);
  j["trace_id"] = trace_ctx->id().hex();
  return json_response(202, std::move(j));
}

void Coordinator::remember_route(const std::string& cluster_id, Route route) {
  std::lock_guard<std::mutex> lock(table_mutex_);
  routed_[cluster_id] = std::move(route);
  routed_order_.push_back(cluster_id);
  while (routed_order_.size() > options_.routing_table_capacity) {
    routed_.erase(routed_order_.front());
    routed_order_.pop_front();
  }
}

std::optional<Coordinator::Route> Coordinator::routed_record(
    const std::string& cluster_id) const {
  std::lock_guard<std::mutex> lock(table_mutex_);
  const auto it = routed_.find(cluster_id);
  if (it == routed_.end()) return std::nullopt;
  return it->second;
}

std::optional<std::pair<std::size_t, std::string>> Coordinator::resolve(
    const std::string& cluster_id) const {
  // The id embeds its route ("w<k>-<worker job id>"), so resolution
  // survives routing-table eviction; the table is still consulted first
  // as the authoritative record for ids it remembers.
  std::size_t index = workers_.size();
  {
    std::lock_guard<std::mutex> lock(table_mutex_);
    const auto it = routed_.find(cluster_id);
    if (it != routed_.end()) index = it->second.worker;
  }
  if (cluster_id.size() < 3 || cluster_id[0] != 'w') return std::nullopt;
  const auto dash = cluster_id.find('-');
  if (dash == std::string::npos || dash + 1 >= cluster_id.size()) return std::nullopt;
  if (index == workers_.size()) {
    std::size_t parsed = 0;
    const char* begin = cluster_id.data() + 1;
    const char* end = cluster_id.data() + dash;
    const auto [ptr, ec] = std::from_chars(begin, end, parsed);
    if (ec != std::errc() || ptr != end || parsed >= workers_.size()) return std::nullopt;
    index = parsed;
  }
  return std::make_pair(index, cluster_id.substr(dash + 1));
}

HttpResponse Coordinator::do_job_request(const HttpRequest& request,
                                         const std::string& cluster_id, bool is_cancel,
                                         const std::string& suffix) {
  const auto route = resolve(cluster_id);
  if (!route) return error_json(404, "unknown job id");
  const auto [index, worker_job_id] = *route;
  Worker& worker = *workers_[index];

  const auto call = call_worker(
      worker,
      [](Worker& w) {
        return w.breaker.state(std::chrono::steady_clock::now()) != BreakerState::kOpen;
      },
      [&](net::HttpClient& client) {
        const std::string target = "/v1/jobs/" + worker_job_id + suffix;
        // Forward Accept so a client can pull the binary result encoding
        // straight through the proxy.
        net::HeaderList extra;
        if (const std::string* accept = request.header("Accept")) {
          extra.emplace_back("Accept", *accept);
        }
        return is_cancel ? client.del(target) : client.get(target, extra);
      });
  if (!call.admitted) {
    return error_json(502, "worker " + worker.endpoint.id + " is unavailable (breaker open)");
  }
  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    if (is_cancel) {
      ++stats_.proxied_cancels;
    } else {
      ++stats_.proxied_polls;
    }
  }

  if (!call.ok) {
    return error_json(502, "worker " + worker.endpoint.id + " unreachable: " + call.error);
  }
  HttpResponse out = mirror(call.response);
  out.body = rewrite_job_id(std::move(out.body), worker_job_id, cluster_id);
  return out;
}

HttpResponse Coordinator::do_job_trace(const HttpRequest& request,
                                       const std::string& cluster_id) {
  HttpResponse upstream = do_job_request(request, cluster_id, /*is_cancel=*/false, "/trace");
  if (upstream.status != 200) return upstream;

  // Stitch the worker's span tree under the coordinator's proxy span:
  // worker span ids shift by a fixed base (they can never collide with
  // coordinator ids — span buffers are far smaller than the base),
  // top-level worker spans (parent 0) re-parent onto the proxy span, and
  // worker start offsets rebase onto the proxy span's start so the
  // merged timeline is consistent. If the route record was evicted (or
  // predates tracing), the worker's answer passes through unstitched —
  // still a complete single-daemon trace.
  const auto record = routed_record(cluster_id);
  if (!record || !record->trace) return upstream;

  Json worker_json;
  try {
    worker_json = Json::parse(upstream.body);
  } catch (const JsonParseError&) {
    return upstream;
  }
  if (!worker_json.contains("spans")) return upstream;

  constexpr std::uint64_t kWorkerSpanBase = 1u << 20;
  Json merged = service::trace_to_json(*record->trace);
  merged["job_id"] = cluster_id;
  if (worker_json.contains("state")) merged["state"] = worker_json.at("state");
  merged["spans_dropped"] =
      merged.uint_or("spans_dropped", 0) + worker_json.uint_or("spans_dropped", 0);

  double proxy_start_us = 0.0;
  for (const auto& span : merged.at("spans").as_array()) {
    if (span.uint_or("id", 0) == record->proxy_span) {
      proxy_start_us = span.number_or("start_us", 0.0);
      break;
    }
  }
  for (const auto& span : worker_json.at("spans").as_array()) {
    Json shifted = span;
    shifted["id"] = span.uint_or("id", 0) + kWorkerSpanBase;
    const std::uint64_t parent = span.uint_or("parent", 0);
    shifted["parent"] = parent == 0 ? record->proxy_span : parent + kWorkerSpanBase;
    shifted["start_us"] = span.number_or("start_us", 0.0) + proxy_start_us;
    merged["spans"].push_back(std::move(shifted));
  }
  return json_response(200, std::move(merged));
}

HttpResponse Coordinator::do_upload(const HttpRequest& request) {
  // Compute the content hash locally — it IS the matrix_ref the workers
  // will answer with, and the ring key by-ref submits route on.
  const std::string* ctype = request.header("Content-Type");
  const bool is_frame = ctype != nullptr && wire::is_frame_content_type(*ctype);
  std::uint64_t key = 0;
  try {
    if (is_frame) {
      key = wire::hash_matrix_frame(request.body);
    } else {
      const Json parsed = Json::parse(request.body);
      key = service::hash_matrix(
          service::matrix_from_json(parsed.contains("matrix") ? parsed.at("matrix") : parsed));
    }
  } catch (const std::exception& e) {
    return error_json(400, e.what());
  }
  const std::string forward_type = ctype != nullptr ? *ctype : "application/json";

  // Replicate to every reachable worker, ring home first. Uploads are
  // rare, bounded (the body cap) and idempotent by content hash, and a
  // warm replica on every worker means a spillover submit never bounces
  // through the 404 re-upload protocol. Workers that are down or fail
  // mid-upload simply stay cold: the first by-ref submit they see answers
  // 404, the client re-uploads, and this fan-out heals them — that
  // round-trip is the self-healing contract, not an error path.
  bool have_primary = false;
  HttpResponse primary;
  for (const std::size_t index : ring_.candidates(key)) {
    const auto call = call_worker(
        *workers_[index],
        [](Worker& w) { return w.breaker.allow(std::chrono::steady_clock::now()); },
        [&](net::HttpClient& client) {
          return client.put("/v1/matrices", request.body, forward_type);
        });
    if (!call.ok) continue;
    const auto& response = call.response;

    if (response.status >= 400 && response.status < 500) {
      return mirror(response);  // deterministic rejection: don't spread it
    }
    if (!have_primary && response.status < 300) {
      primary = mirror(response);
      have_primary = true;
    }
  }

  {
    std::lock_guard<std::mutex> stats_lock(stats_mutex_);
    ++stats_.proxied_uploads;
  }
  if (!have_primary) return error_json(503, "no cluster worker accepted the upload");
  return primary;
}

HttpResponse Coordinator::do_list(const HttpRequest& request) {
  const std::string target =
      request.query.empty() ? "/v1/jobs" : "/v1/jobs?" + request.query;
  // Honor ?limit=N as a bound on the MERGED answer, not per worker.
  // Workers have no cross-worker clock, so true global newest-first is
  // not reconstructible; interleaving the per-worker newest-first lists
  // round-robin is the closest deterministic approximation and keeps the
  // daemon's bound intact (documented in DESIGN.md).
  std::size_t limit = 100;
  if (!net::parse_limit_param(request.query, 1000, &limit)) {
    return error_json(400, "limit must be a non-negative integer");
  }

  std::vector<std::vector<Json>> per_worker(workers_.size());
  std::size_t unreachable = 0;
  for (std::size_t index = 0; index < workers_.size(); ++index) {
    Worker& worker = *workers_[index];
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      if (worker.breaker.state(std::chrono::steady_clock::now()) == BreakerState::kOpen) {
        ++unreachable;
        continue;
      }
    }
    // Ephemeral short-deadline client (not the pool): a scrape fan-out
    // over N workers runs sequentially on one proxy thread, so one slow
    // worker must cost probe-scale seconds, not the 15 s submit budget.
    try {
      net::HttpClient scrape(worker.endpoint.host, worker.endpoint.port,
                             options_.probe_deadlines);
      const auto response = scrape.get(target);
      if (response.status != 200) {
        ++unreachable;
        continue;
      }
      const Json body = Json::parse(response.body);
      for (const auto& entry : body.at("jobs").as_array()) {
        Json withRoute = entry;
        withRoute["job_id"] =
            "w" + std::to_string(index) + "-" + entry.at("job_id").as_string();
        withRoute["worker"] = worker.endpoint.id;
        per_worker[index].push_back(std::move(withRoute));
      }
    } catch (const std::exception&) {
      ++unreachable;
    }
  }

  Json jobs = Json::array();
  std::size_t taken = 0;
  for (std::size_t rank = 0; taken < limit; ++rank) {
    bool any = false;
    for (std::size_t index = 0; index < per_worker.size() && taken < limit; ++index) {
      if (rank >= per_worker[index].size()) continue;
      any = true;
      jobs.push_back(std::move(per_worker[index][rank]));
      ++taken;
    }
    if (!any) break;
  }

  Json body = Json::object();
  body["count"] = static_cast<std::uint64_t>(taken);
  body["workers_unreachable"] = static_cast<std::uint64_t>(unreachable);
  body["jobs"] = std::move(jobs);
  return json_response(200, std::move(body));
}

HttpResponse Coordinator::healthz_now() {
  std::size_t healthy = 0;
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    if (worker->breaker.state(std::chrono::steady_clock::now()) != BreakerState::kOpen &&
        worker->probe_ok) {
      ++healthy;
    }
  }
  Json j = Json::object();
  j["status"] = healthy > 0 ? "ok" : "degraded";
  j["workers"] = static_cast<std::uint64_t>(workers_.size());
  j["workers_healthy"] = static_cast<std::uint64_t>(healthy);
  return json_response(healthy > 0 ? 200 : 503, std::move(j));
}

Coordinator::RoutingStats Coordinator::routing_stats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

std::vector<Coordinator::WorkerSnapshot> Coordinator::workers() const {
  std::vector<WorkerSnapshot> out;
  out.reserve(workers_.size());
  for (const auto& worker : workers_) {
    std::lock_guard<std::mutex> lock(worker->mutex);
    WorkerSnapshot s;
    s.id = worker->endpoint.id;
    s.breaker = worker->breaker.state(std::chrono::steady_clock::now());
    s.breaker_trips = worker->breaker.trips();
    s.in_flight = worker->in_flight;
    s.submits_accepted = worker->submits_accepted;
    s.affinity_wins = worker->affinity_wins;
    s.transport_failures = worker->transport_failures;
    s.probe_ok = worker->probe_ok;
    out.push_back(std::move(s));
  }
  return out;
}

std::string Coordinator::metrics_text() {
  const auto stats = routing_stats();
  const auto snapshots = workers();

  MetricsWriter m;
  m.gauge("mpqls_cluster_workers", "Configured cluster workers.",
          static_cast<std::uint64_t>(workers_.size()));
  std::uint64_t trips_total = 0;
  for (const auto& s : snapshots) trips_total += s.breaker_trips;
  m.counter("mpqls_cluster_submits_total", "Jobs a worker answered 202 for.",
            stats.submits_accepted);
  m.counter("mpqls_cluster_affinity_hits_total",
            "Accepted submits that landed on the ring-preferred worker.", stats.affinity_hits);
  m.counter("mpqls_cluster_spillovers_total",
            "Accepted submits that landed on a non-preferred worker.", stats.spillovers);
  m.counter("mpqls_cluster_retries_total",
            "Per-attempt failures or breaker skips that moved to the next candidate.",
            stats.retries);
  m.counter("mpqls_cluster_breaker_trips_total", "Circuit-breaker open transitions.",
            trips_total);
  m.counter("mpqls_cluster_saturated_rejects_total",
            "Submits refused because every candidate answered 429/503/5xx.",
            stats.saturated_rejects);
  m.counter("mpqls_cluster_unroutable_total",
            "Submits refused because no worker was reachable at all.", stats.unroutable);
  m.counter("mpqls_cluster_proxied_polls_total", "GET /v1/jobs/{id} requests proxied.",
            stats.proxied_polls);
  m.counter("mpqls_cluster_proxied_cancels_total", "DELETE /v1/jobs/{id} requests proxied.",
            stats.proxied_cancels);
  m.counter("mpqls_cluster_proxied_uploads_total",
            "PUT /v1/matrices uploads fanned out to the workers.", stats.proxied_uploads);
  m.counter("mpqls_cluster_dist_submits_total",
            "Distributed submits fully admitted (every shard rank answered 202).",
            stats.dist_submits);
  m.counter("mpqls_cluster_dist_rejects_total",
            "Distributed submits refused (shard group incomplete or partial admission).",
            stats.dist_rejects);
  m.gauge("mpqls_cluster_proxy_backlog", "Deferred requests awaiting a proxy thread.",
          static_cast<std::uint64_t>(proxy_backlog_.load()));

  // Same family name (and bucket bounds) as the workers' per-stage
  // histograms; the worker copies arrive below relabeled with worker="w<k>",
  // so the coordinator's stage="route" series never collides.
  m.histogram("mpqls_latency_seconds",
              "Coordinator submit latency: body parse + routing + worker POST "
              "(spillover attempts included).",
              route_latency_, {{"stage", "route"}});

  // Per-worker routing gauges, one labeled series per worker.
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const auto& s = snapshots[i];
    const std::string label = "w" + std::to_string(i);
    m.gauge("mpqls_cluster_worker_breaker_state",
            "0 closed, 1 half-open, 2 open.",
            std::uint64_t{s.breaker == BreakerState::kClosed
                              ? 0u
                              : (s.breaker == BreakerState::kHalfOpen ? 1u : 2u)},
            {{"worker", label}});
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const std::string label = "w" + std::to_string(i);
    m.gauge("mpqls_cluster_worker_in_flight", "Proxied requests on the wire to this worker.",
            static_cast<std::uint64_t>(snapshots[i].in_flight), {{"worker", label}});
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const std::string label = "w" + std::to_string(i);
    const auto& s = snapshots[i];
    const double ratio =
        s.submits_accepted == 0
            ? 0.0
            : static_cast<double>(s.affinity_wins) / static_cast<double>(s.submits_accepted);
    m.gauge("mpqls_cluster_worker_affinity_hit_ratio",
            "Fraction of this worker's accepted submits it was the ring home for.", ratio,
            {{"worker", label}});
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    const std::string label = "w" + std::to_string(i);
    m.counter("mpqls_cluster_worker_transport_failures_total",
              "Connect/timeout/closed failures talking to this worker.",
              snapshots[i].transport_failures, {{"worker", label}});
  }

  // Fetch and merge every reachable worker's own families, relabeled.
  std::vector<std::pair<std::string, std::string>> bodies;
  for (std::size_t index = 0; index < workers_.size(); ++index) {
    Worker& worker = *workers_[index];
    {
      std::lock_guard<std::mutex> lock(worker.mutex);
      if (worker.breaker.state(std::chrono::steady_clock::now()) == BreakerState::kOpen) {
        continue;
      }
    }
    // Short-deadline ephemeral client, same reasoning as do_list: a
    // stalled worker must not pin a proxy thread for the submit budget.
    try {
      net::HttpClient scrape(worker.endpoint.host, worker.endpoint.port,
                             options_.probe_deadlines);
      const auto response = scrape.get("/v1/metrics");
      if (response.status == 200) {
        bodies.emplace_back("w" + std::to_string(index), response.body);
      }
    } catch (const std::exception&) {
      // Omitted from the merge; breaker bookkeeping is the prober's job.
    }
  }
  m.raw(merge_worker_metrics(bodies));
  return m.str();
}

void Coordinator::probe_loop() {
  while (probing_.load()) {
    for (std::size_t index = 0; index < workers_.size() && probing_.load(); ++index) {
      Worker& worker = *workers_[index];
      {
        std::lock_guard<std::mutex> lock(worker.mutex);
        // allow() doubles as the half-open gate: when the cool-off
        // elapses, the probe itself is the trial request.
        if (!worker.breaker.allow(std::chrono::steady_clock::now())) continue;
      }
      bool ok = false;
      try {
        ok = worker.probe_client.get("/v1/healthz").status == 200;
      } catch (const std::exception&) {
        ok = false;
      }
      std::lock_guard<std::mutex> lock(worker.mutex);
      worker.probe_ok = ok;
      if (ok) {
        worker.breaker.record_success();
      } else {
        worker.breaker.record_failure(std::chrono::steady_clock::now());
        ++worker.transport_failures;
      }
    }
    std::unique_lock<std::mutex> lock(probe_mutex_);
    probe_cv_.wait_for(lock, options_.probe_interval, [this] { return !probing_.load(); });
  }
}

}  // namespace mpqls::cluster
