#include "net/daemon.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <string_view>
#include <utility>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/metrics.hpp"
#include "net/shard_exchange.hpp"
#include "service/fingerprint.hpp"
#include "service/json_io.hpp"
#include "service/limits.hpp"
#include "solver/qsvt_ir.hpp"
#include "wire/codec.hpp"

namespace mpqls::net {

namespace {

/// Replace bytes that would corrupt a terminal or log when an error
/// message is echoed into a response body. Parser messages carry byte
/// offsets, never payload bytes, by design — this is defense in depth so
/// a binary request body can NEVER leak control bytes through a 4xx/5xx,
/// whatever the message source.
std::string printable(std::string_view message) {
  std::string out;
  out.reserve(message.size());
  for (const char c : message) {
    const auto u = static_cast<unsigned char>(c);
    out += (u >= 0x20 && u != 0x7f) ? c : '.';
  }
  return out;
}

HttpResponse json_response(int status, Json body) {
  HttpResponse r;
  r.status = status;
  r.body = body.dump() + "\n";
  return r;
}

HttpResponse error_json(int status, const std::string& message) {
  Json j = Json::object();
  j["error"] = printable(message);
  return json_response(status, std::move(j));
}

/// The cold-ref signal of the re-upload protocol (see wire/DESIGN.md):
/// the client PUTs the matrix to /v1/matrices and resubmits.
HttpResponse matrix_miss_json(std::uint64_t ref) {
  Json j = Json::object();
  j["error"] = "unknown matrix_ref";
  j["matrix_ref"] = service::u64_hex(ref);
  return json_response(404, std::move(j));
}

enum class BodyEncoding { kJson, kFrame, kUnknown };

/// No Content-Type keeps the historical JSON default; anything naming
/// "json" is JSON; the frame media type selects the binary codec;
/// everything else is a 415.
BodyEncoding body_encoding(const HttpRequest& request) {
  const std::string* ct = request.header("Content-Type");
  if (ct == nullptr || ct->empty()) return BodyEncoding::kJson;
  if (wire::is_frame_content_type(*ct)) return BodyEncoding::kFrame;
  std::string lower(*ct);
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  if (lower.find("json") != std::string::npos) return BodyEncoding::kJson;
  // `curl -d` stamps this without being asked; every documented walkthrough
  // uses it with a JSON body, so it keeps the historical JSON default.
  if (lower.find("application/x-www-form-urlencoded") != std::string::npos) {
    return BodyEncoding::kJson;
  }
  return BodyEncoding::kUnknown;
}

HttpResponse unsupported_media_type() {
  return error_json(415, std::string("unsupported Content-Type; use application/json or ") +
                             wire::kContentType);
}

/// Best-effort gate-level circuit width for the admission-time capacity
/// check: the dense embedding solves an n-dim system on ceil_log2(n)
/// data qubits plus BE ancilla, signal, and real-part qubits. Returns 0
/// (no check) when the body does not cheaply reveal the dimension or
/// would not run that circuit (matrix-function backend, non-dense
/// encoding) — the service re-checks the exact compiled width at solve
/// time either way; this only upgrades the failure to a synchronous 413.
std::size_t estimate_circuit_qubits(const Json& body, std::size_t resolved_rows) {
  try {
    if (body.contains("options") && body.at("options").is_object()) {
      const Json& o = body.at("options");
      if (o.contains("qsvt") && o.at("qsvt").is_object()) {
        const Json& q = o.at("qsvt");
        if (q.string_or("backend", "gate") != "gate") return 0;
        if (q.string_or("encoding", "dense") != "dense") return 0;
      }
    }
    std::size_t n = resolved_rows;
    if (n == 0 && body.contains("matrix") && body.at("matrix").is_object()) {
      const Json& m = body.at("matrix");
      const std::string scenario = m.string_or("scenario", "dense");
      if (scenario == "dense" && m.contains("rows") && m.at("rows").is_array()) {
        n = m.at("rows").as_array().size();
      } else if (scenario == "poisson2d") {
        const std::uint64_t nx = m.uint_or("nx", 0);
        const std::uint64_t ny = m.uint_or("ny", 0);
        if (nx > service::kMaxDimension || ny > service::kMaxDimension) return 0;
        n = static_cast<std::size_t>(nx * ny);
      } else if (m.contains("n")) {
        n = static_cast<std::size_t>(m.at("n").as_uint());
      }
    }
    // Over-cap dimensions fail at materialization with the dimension-cap
    // message; they must not reach the width computation below.
    if (n < 2 || n > service::kMaxDimension) return 0;
    return static_cast<std::size_t>(std::bit_width(n - 1)) + 3;
  } catch (const std::exception&) {
    return 0;  // schema defects surface as a failed job, as before
  }
}

}  // namespace

SolverDaemon::SolverDaemon(DaemonOptions options)
    : options_(options),
      service_([this] {
        // Distributed jobs need a transport; unless the embedder injected
        // one (tests wire LocalPeerGroup endpoints), install the HTTP
        // channel that exchanges through this daemon's shard hub.
        service::ServiceOptions s = options_.service;
        if (!s.shard_channel) {
          s.shard_channel = [this](const service::ShardSpec& shard) {
            return std::static_pointer_cast<qsim::exec::dist::PeerChannel>(
                std::make_shared<HttpPeerChannel>(shard, shard_hub_,
                                                  options_.limits.max_body_bytes));
          };
        }
        return s;
      }()),
      server_(
          HttpServer::Options{options.bind_address, options.port, options.limits,
                              options.max_connections, options.idle_timeout},
          [this](const HttpRequest& request) { return handle(request); }) {
  router_.add("POST", "/v1/jobs",
              [this](const HttpRequest& request, const PathParams&) { return submit_job(request); });
  router_.add("GET", "/v1/jobs",
              [this](const HttpRequest& request, const PathParams&) { return list_jobs(request); });
  router_.add("GET", "/v1/jobs/{id}",
              [this](const HttpRequest&, const PathParams& params) { return job_status(params); });
  router_.add("GET", "/v1/jobs/{id}/result", [this](const HttpRequest& request,
                                                    const PathParams& params) {
    return job_result(request, params);
  });
  router_.add("GET", "/v1/jobs/{id}/trace",
              [this](const HttpRequest&, const PathParams& params) { return job_trace(params); });
  router_.add("GET", "/v1/debug/slow",
              [this](const HttpRequest&, const PathParams&) { return debug_slow(); });
  router_.add("DELETE", "/v1/jobs/{id}",
              [this](const HttpRequest&, const PathParams& params) { return cancel_job(params); });
  router_.add("PUT", "/v1/matrices", [this](const HttpRequest& request, const PathParams&) {
    return upload_matrix(request);
  });
  router_.add("GET", "/v1/matrices/{ref}",
              [this](const HttpRequest&, const PathParams& params) { return matrix_info(params); });
  router_.add("POST", "/v1/shard/exchange", [this](const HttpRequest& request, const PathParams&) {
    return shard_exchange(request);
  });
  router_.add("GET", "/v1/healthz",
              [this](const HttpRequest&, const PathParams&) { return healthz(); });
  router_.add("GET", "/v1/metrics", [this](const HttpRequest&, const PathParams&) {
    HttpResponse r;
    r.content_type = "text/plain; version=0.0.4; charset=utf-8";
    r.body = metrics_text();
    return r;
  });
}

void SolverDaemon::start() { server_.start(); }

bool SolverDaemon::drain(std::chrono::milliseconds grace) {
  draining_.store(true);
  const bool idle = service_.wait_idle(grace);
  if (!stopped_.exchange(true)) server_.stop();
  return idle;
}

// HttpServer owns keep-alive semantics (it combines every handler
// response with the request's wishes), so dispatch is all that's left.
HttpResponse SolverDaemon::handle(const HttpRequest& request) { return router_.dispatch(request); }

HttpResponse SolverDaemon::submit_job(const HttpRequest& request) {
  const Timer admission_timer;
  if (draining_.load()) return error_json(503, "daemon is draining; job admission closed");

  const BodyEncoding encoding = body_encoding(request);
  if (encoding == BodyEncoding::kUnknown) return unsupported_media_type();
  EncodingCounters& counters = encoding == BodyEncoding::kFrame ? wire_binary_ : wire_json_;
  counters.requests.fetch_add(1, std::memory_order_relaxed);
  counters.request_bytes.fetch_add(request.body.size(), std::memory_order_relaxed);

  // Trace adoption (see net/DESIGN.md): an `x-mpqls-trace` header wins —
  // that is the coordinator's propagation path — else the body-level id
  // (wire-v3 trailer / JSON "trace_id"), else a fresh mint below.
  // Malformed ids parse to zero and fall through to the mint.
  trace::TraceId trace_id{};
  if (const std::string* th = request.header("x-mpqls-trace")) {
    trace::TraceId::parse(*th, trace_id);
  }

  // Only cheap admission work runs here on the loop thread: a byte-capped
  // JSON parse, or for frames just a header + matrix-ref peek. Full
  // materialization — payload decode, O(n^3) scenario generation — is
  // deferred to the job worker, so a heavy or semantically bogus body can
  // never stall the event loop: schema defects surface as state=failed
  // with the validation message when the job is polled. A by-ref request
  // IS resolved now (one hash-map probe) so a cold ref answers 404
  // synchronously — the client's signal to re-upload and retry — and the
  // resolved matrix rides into the worker closure as a shared_ptr, immune
  // to store eviction between admission and pickup.
  std::function<service::SolveRequest()> make_request;
  if (encoding == BodyEncoding::kFrame) {
    std::optional<std::uint64_t> ref;
    try {
      ref = wire::peek_request_matrix_ref(request.body);
      if (trace_id.zero()) trace_id = wire::peek_request_trace(request.body);
    } catch (const wire::WireError& e) {
      return error_json(400, e.what());
    }
    std::shared_ptr<const linalg::Matrix<double>> resolved;
    if (ref) {
      resolved = service_.matrix_store().get(*ref);
      if (!resolved) return matrix_miss_json(*ref);
    }
    make_request = [body = request.body, resolved = std::move(resolved)] {
      service::MatrixResolver resolve;
      if (resolved) resolve = [&resolved](std::uint64_t) { return resolved; };
      return wire::decode_request(body, resolve);
    };
  } else {
    Json body;
    try {
      body = Json::parse(request.body);
    } catch (const JsonParseError& e) {
      return error_json(400, e.what());
    }
    if (trace_id.zero() && body.is_object() && body.contains("trace_id") &&
        body.at("trace_id").is_string()) {
      trace::TraceId::parse(body.at("trace_id").as_string(), trace_id);
    }
    std::shared_ptr<const linalg::Matrix<double>> resolved;
    if (body.contains("matrix_ref")) {
      std::uint64_t ref = 0;
      try {
        ref = service::u64_from_hex(body.at("matrix_ref").as_string());
      } catch (const std::exception& e) {
        return error_json(400, e.what());
      }
      resolved = service_.matrix_store().get(ref);
      if (!resolved) return matrix_miss_json(ref);
    }
    // Capacity admission: when this worker enforces a statevector qubit
    // cap, an obviously-too-wide gate-level job answers 413 here instead
    // of a failed job on poll. Sharding across W workers strips log2(W)
    // qubits from the local statevector, so a job the single node rejects
    // can still be admitted as part of a large enough shard group. The
    // estimate is best-effort (0 = no opinion); the service re-checks the
    // exact compiled width at solve time.
    if (const std::size_t cap = options_.service.max_statevector_qubits; cap != 0) {
      const std::size_t width =
          estimate_circuit_qubits(body, resolved ? resolved->rows() : 0);
      std::size_t world = 1;
      if (body.contains("shard") && body.at("shard").is_object()) {
        world = static_cast<std::size_t>(body.at("shard").uint_or("world", 1));
      }
      std::size_t local = width;
      for (std::size_t w = world; w > 1 && local > 0; w >>= 1) --local;
      if (width != 0 && local > cap) {
        Json j = Json::object();
        j["error"] =
            "statevector exceeds this worker's qubit cap; submit to a larger shard group";
        j["estimated_qubits"] = static_cast<std::uint64_t>(width);
        j["local_qubits"] = static_cast<std::uint64_t>(local);
        j["max_statevector_qubits"] = static_cast<std::uint64_t>(cap);
        return json_response(413, std::move(j));
      }
    }
    make_request = [body = std::move(body), resolved = std::move(resolved)] {
      service::MatrixResolver resolve;
      if (resolved) resolve = [&resolved](std::uint64_t) { return resolved; };
      return service::request_from_json(body, resolve);
    };
  }

  // The job's span buffer, minted (or adopted) here at the front door so
  // the admission span is the first entry every trace shares. The parse
  // and store-probe work above is cheap enough that folding it into the
  // span would not change its shape; the admission HISTOGRAM does cover
  // it (admission_timer spans the whole handler).
  auto trace_ctx = trace::make_trace(trace_id);
  {
    trace::ScopedSpan admission_span(trace_ctx, "admission");
    admission_span.attr("encoding", encoding == BodyEncoding::kFrame ? "binary" : "json");
  }

  // The render callback also runs on the worker, so a terminal result is
  // serialized exactly once no matter how often it is polled.
  const auto job_id = service_.submit_job(
      std::move(make_request),
      [](const service::SolveResult& result) { return service::to_json(result).dump(); },
      trace_ctx);
  if (!job_id) {
    HttpResponse r = error_json(429, "job queue full; retry later");
    r.headers.emplace_back("Retry-After", "1");
    return r;
  }
  admission_latency_.observe(admission_timer.seconds());

  Json j = Json::object();
  j["job_id"] = *job_id;
  j["state"] = "queued";
  j["status_url"] = "/v1/jobs/" + *job_id;
  j["trace_id"] = trace_ctx->id().hex();
  return json_response(202, std::move(j));
}

// The receive half of a pairwise shard exchange: the sending rank's
// HttpPeerChannel POSTs its amplitude block here; depositing it in the
// hub wakes the local job's matching await. Runs entirely on the event
// loop — one decode plus one map insert, no solving work. A deposit the
// hub refuses (pending-byte budget exhausted) answers 503 so the sender
// fails fast instead of deadlocking its group.
HttpResponse SolverDaemon::shard_exchange(const HttpRequest& request) {
  if (body_encoding(request) != BodyEncoding::kFrame) {
    return error_json(415, std::string("shard exchange requires ") + wire::kContentType);
  }
  wire_binary_.requests.fetch_add(1, std::memory_order_relaxed);
  wire_binary_.request_bytes.fetch_add(request.body.size(), std::memory_order_relaxed);
  wire::ShardExchange ex;
  try {
    ex = wire::decode_shard_exchange(request.body);
  } catch (const wire::WireError& e) {
    return error_json(400, e.what());
  }
  if (!shard_hub_.deposit(ex.group, ex.from, ex.seq, std::move(ex.payload))) {
    return error_json(503, "shard exchange buffer full; peer retries or fails the solve");
  }
  Json j = Json::object();
  j["ok"] = true;
  return json_response(200, std::move(j));
}

HttpResponse SolverDaemon::job_status(const PathParams& params) {
  const auto status = service_.job_status(params.get("id"));
  if (!status) return error_json(404, "unknown job id");

  Json j = Json::object();
  j["job_id"] = status->job_id;
  j["state"] = service::to_string(status->state);
  j["queue_seconds"] = status->queue_seconds;
  j["run_seconds"] = status->run_seconds;
  if (status->trace) j["trace_id"] = status->trace->id().hex();
  if (!status->error.empty()) j["error"] = status->error;

  HttpResponse response;
  response.body = j.dump();
  if (status->rendered) {
    // Splice the worker-rendered result in verbatim instead of
    // re-serializing a potentially multi-MB SolveResult on the event-loop
    // thread for every poll. The envelope dump is a non-empty object, so
    // inserting before its closing '}' keeps the body valid JSON.
    response.body.insert(response.body.size() - 1, ",\"result\":" + *status->rendered);
    wire_json_.responses.fetch_add(1, std::memory_order_relaxed);
    wire_json_.response_bytes.fetch_add(status->rendered->size(), std::memory_order_relaxed);
  }
  response.body += "\n";
  return response;
}

HttpResponse SolverDaemon::job_result(const HttpRequest& request, const PathParams& params) {
  const auto status = service_.job_status(params.get("id"));
  if (!status) return error_json(404, "unknown job id");
  if (status->state != service::JobState::kDone || !status->rendered) {
    Json j = Json::object();
    j["error"] = "job has no result";
    j["state"] = service::to_string(status->state);
    if (!status->error.empty()) j["detail"] = printable(status->error);
    return json_response(409, std::move(j));
  }

  const std::string* accept = request.header("Accept");
  if (accept != nullptr && wire::is_frame_content_type(*accept)) {
    HttpResponse r;
    r.content_type = wire::kContentType;
    // A daemon job keeps only its rendered JSON; the frame is rebuilt from
    // it (the JSON form carries every field the frame does).
    r.body = wire::encode_result(service::result_from_json(Json::parse(*status->rendered)));
    wire_binary_.responses.fetch_add(1, std::memory_order_relaxed);
    wire_binary_.response_bytes.fetch_add(r.body.size(), std::memory_order_relaxed);
    return r;
  }
  HttpResponse r;
  r.body = *status->rendered;
  wire_json_.responses.fetch_add(1, std::memory_order_relaxed);
  wire_json_.response_bytes.fetch_add(r.body.size(), std::memory_order_relaxed);
  r.body += "\n";
  return r;
}

HttpResponse SolverDaemon::job_trace(const PathParams& params) {
  const auto status = service_.job_status(params.get("id"));
  if (!status) return error_json(404, "unknown job id");

  // Every registry job has a trace (minted at admission when the client
  // supplied none), but records from before the tracing rollout — or a
  // cancel that raced submission — may lack one; serve an empty span
  // list rather than a confusing 404 for a job that clearly exists.
  Json j = status->trace ? service::trace_to_json(*status->trace) : Json::object();
  j["job_id"] = status->job_id;
  j["state"] = service::to_string(status->state);
  return json_response(200, std::move(j));
}

HttpResponse SolverDaemon::debug_slow() {
  Json entries = Json::array();
  for (const auto& rec : service_.flight_recorder().snapshot()) {
    Json j = Json::object();
    j["job_id"] = rec.job_id;
    j["state"] = rec.state;
    j["total_seconds"] = rec.total_seconds;
    j["queue_seconds"] = rec.queue_seconds;
    j["run_seconds"] = rec.run_seconds;
    if (rec.trace) j["trace"] = service::trace_to_json(*rec.trace);
    entries.push_back(std::move(j));
  }
  Json body = Json::object();
  body["count"] = static_cast<double>(entries.as_array().size());
  body["capacity"] = static_cast<double>(service_.flight_recorder().capacity());
  body["slow_jobs"] = std::move(entries);
  return json_response(200, std::move(body));
}

HttpResponse SolverDaemon::upload_matrix(const HttpRequest& request) {
  const BodyEncoding encoding = body_encoding(request);
  if (encoding == BodyEncoding::kUnknown) return unsupported_media_type();
  EncodingCounters& counters = encoding == BodyEncoding::kFrame ? wire_binary_ : wire_json_;
  counters.requests.fetch_add(1, std::memory_order_relaxed);
  counters.request_bytes.fetch_add(request.body.size(), std::memory_order_relaxed);

  // Decoding runs on the loop thread: a kMatrix frame decodes as one
  // bounds check plus a memcpy, and uploads are rare next to submits.
  linalg::Matrix<double> A;
  try {
    if (encoding == BodyEncoding::kFrame) {
      A = wire::decode_matrix(request.body);
    } else {
      const Json body = Json::parse(request.body);
      A = service::matrix_from_json(body.contains("matrix") ? body.at("matrix") : body);
    }
  } catch (const std::exception& e) {  // WireError / JsonParseError / validation
    return error_json(400, e.what());
  }
  if (A.rows() != A.cols()) return error_json(400, "store: square matrix required");

  const std::uint64_t hash = service::hash_matrix(A);
  const std::size_t rows = A.rows();
  const bool created = !service_.matrix_store().contains(hash);
  service_.matrix_store().put(hash, std::move(A));

  Json j = Json::object();
  j["matrix_ref"] = service::u64_hex(hash);
  j["rows"] = static_cast<double>(rows);
  j["cols"] = static_cast<double>(rows);
  j["bytes"] = static_cast<double>(rows * rows * sizeof(double));
  j["created"] = created;
  return json_response(created ? 201 : 200, std::move(j));
}

HttpResponse SolverDaemon::matrix_info(const PathParams& params) {
  std::uint64_t ref = 0;
  try {
    ref = service::u64_from_hex(params.get("ref"));
  } catch (const std::exception& e) {
    return error_json(400, e.what());
  }
  // get(), not contains(): a probe refreshes recency (a client checking
  // before a burst of by-ref submits keeps the entry warm) and shows up
  // in the hit/miss counters like any other resolution.
  const auto m = service_.matrix_store().get(ref);
  if (!m) return matrix_miss_json(ref);

  Json j = Json::object();
  j["matrix_ref"] = service::u64_hex(ref);
  j["rows"] = static_cast<double>(m->rows());
  j["cols"] = static_cast<double>(m->cols());
  j["bytes"] = static_cast<double>(m->rows() * m->cols() * sizeof(double));
  return json_response(200, std::move(j));
}

HttpResponse SolverDaemon::cancel_job(const PathParams& params) {
  const std::string& id = params.get("id");
  switch (service_.cancel_job(id)) {
    case service::CancelOutcome::kNotFound: return error_json(404, "unknown job id");
    case service::CancelOutcome::kNotCancellable:
      return error_json(409, "job is running or already terminal");
    case service::CancelOutcome::kCancelled: break;
  }
  Json j = Json::object();
  j["job_id"] = id;
  j["state"] = "cancelled";
  return json_response(200, std::move(j));
}

HttpResponse SolverDaemon::list_jobs(const HttpRequest& request) {
  // ?limit=N caps the answer; the default and ceiling keep a registry of
  // thousands of retained jobs from turning a poll into a megabyte dump.
  std::size_t limit = 100;
  if (!parse_limit_param(request.query, 1000, &limit)) {
    return error_json(400, "limit must be a non-negative integer");
  }

  Json jobs = Json::array();
  for (const auto& status : service_.list_jobs(limit)) {
    Json j = Json::object();
    j["job_id"] = status.job_id;
    j["state"] = service::to_string(status.state);
    j["queue_seconds"] = status.queue_seconds;
    j["run_seconds"] = status.run_seconds;
    if (!status.error.empty()) j["error"] = status.error;
    jobs.push_back(std::move(j));
  }
  Json body = Json::object();
  body["count"] = static_cast<double>(jobs.as_array().size());
  body["jobs"] = std::move(jobs);
  return json_response(200, std::move(body));
}

HttpResponse SolverDaemon::healthz() const {
  Json j = Json::object();
  j["status"] = draining_.load() ? "draining" : "ok";
  j["uptime_seconds"] = uptime_.seconds();
  // Distributed-execution posture: the qubit cap that makes this worker
  // reject too-wide jobs (0 = unlimited) and the shard groups currently
  // rendezvousing through this daemon's hub. Coordinators consume the cap
  // for shard-group sizing; operators read active_groups to see which
  // distributed solves are in flight on this rank.
  Json dist = Json::object();
  dist["max_statevector_qubits"] =
      static_cast<std::uint64_t>(options_.service.max_statevector_qubits);
  Json groups = Json::array();
  for (const auto& info : shard_hub_.active_groups()) {
    Json g = Json::object();
    g["group"] = service::u64_hex(info.group);
    g["rank"] = static_cast<std::uint64_t>(info.rank);
    g["world"] = static_cast<std::uint64_t>(info.world);
    Json peers = Json::array();
    for (const auto& p : info.peers) peers.push_back(p);
    g["peers"] = std::move(peers);
    groups.push_back(std::move(g));
  }
  dist["active_groups"] = std::move(groups);
  j["dist"] = std::move(dist);
  return json_response(200, std::move(j));
}

std::string SolverDaemon::metrics_text() const {
  const auto cache = service_.cache_stats();
  const auto stats = service_.stats();
  const auto queue = service_.queue_stats();
  const auto http = server_.stats();

  MetricsWriter m;
  m.gauge("mpqls_up", "1 while the daemon is serving.", std::uint64_t{1});
  m.gauge("mpqls_draining", "1 once SIGTERM/SIGINT started the drain.",
          std::uint64_t{draining_.load() ? 1u : 0u});
  m.counter("mpqls_uptime_seconds", "Wall-clock seconds since daemon construction.",
            uptime_.seconds());

  m.counter("mpqls_jobs_completed_total", "Jobs fully solved (sync and async paths).",
            stats.jobs);
  m.counter("mpqls_rhs_solved_total", "Right-hand sides solved across all jobs.",
            stats.rhs_solved);
  m.counter("mpqls_solve_seconds_total", "Summed per-RHS refinement wall clock.",
            stats.solve_seconds_total);
  m.counter("mpqls_prepare_seconds_total",
            "Summed context-preparation wall clock (cache hits cost ~0).",
            stats.prepare_seconds_total);
  m.counter("mpqls_program_compile_seconds_total",
            "Summed circuit->program compile wall clock (one per prepared context).",
            stats.program_compile_seconds_total);
  m.counter("mpqls_program_ops_total", "Fused executor ops across compiled programs.",
            stats.program_ops_total);

  m.gauge("mpqls_panel_width", "Configured RHS lanes per execution panel.",
          static_cast<std::uint64_t>(options_.service.panel_width));
  m.counter("mpqls_panels_executed_total",
            "Compiled-program sweeps that carried a panel of RHS lanes.",
            stats.panels_executed);
  m.counter("mpqls_panel_lanes_total", "RHS lanes carried by executed panels.",
            stats.panel_lanes_total);
  m.gauge("mpqls_panel_mean_lane_occupancy",
          "Mean fraction of the configured panel width occupied per sweep.",
          (stats.panels_executed > 0 && options_.service.panel_width > 0)
              ? static_cast<double>(stats.panel_lanes_total) /
                    (static_cast<double>(stats.panels_executed) *
                     static_cast<double>(options_.service.panel_width))
              : 0.0);

  // Per-precision-tier execution telemetry (the adaptive-precision
  // schedule's footprint; fixed-precision jobs land entirely in one tier).
  const auto tier_family = [&m](const char* name, const char* help,
                                const std::array<std::uint64_t, solver::kTierCount>& values) {
    m.counter(name, help, values[solver::kTierSingle], {{"precision", "single"}});
    m.counter(name, help, values[solver::kTierDouble], {{"precision", "double"}});
  };
  tier_family("mpqls_precision_solves_total", "QSVT replays executed, by precision tier.",
              stats.tier_solves_total);
  tier_family("mpqls_precision_iterations_total",
              "Refinement iterations executed, by precision tier.",
              stats.tier_iterations_total);
  m.counter("mpqls_precision_switches_total",
            "Tier escalations taken by adaptive-precision solves.",
            stats.precision_switches_total);

  m.counter("mpqls_cache_hits_total", "Context-cache hits (includes in-flight joins).",
            cache.hits);
  m.counter("mpqls_cache_misses_total", "Context-cache misses (each runs a preparation).",
            cache.misses);
  m.counter("mpqls_cache_evictions_total", "Contexts evicted by LRU pressure.",
            cache.evictions);
  m.gauge("mpqls_cache_resident", "Prepared contexts currently cached.", cache.size);
  m.gauge("mpqls_cache_capacity", "Context-cache capacity.", cache.capacity);

  m.gauge("mpqls_queue_depth", "Jobs accepted but not yet picked up by a worker.",
          queue.queued);
  m.gauge("mpqls_jobs_running", "Jobs a worker is currently solving.", queue.running);
  m.gauge("mpqls_jobs_in_flight", "Queued plus running jobs (admission-control load).",
          queue.queued + queue.running);
  m.gauge("mpqls_queue_capacity", "Admission bound for in-flight jobs (0 = unbounded).",
          queue.max_pending);
  m.counter("mpqls_jobs_accepted_total", "Jobs admitted by POST /v1/jobs.", queue.accepted);
  m.counter("mpqls_jobs_rejected_total", "Jobs refused with 429 (queue full).",
            queue.rejected);
  m.counter("mpqls_jobs_done_total", "Async jobs that reached state done.", queue.done);
  m.counter("mpqls_jobs_failed_total", "Async jobs that reached state failed.", queue.failed);
  m.counter("mpqls_jobs_cancelled_total", "Queued jobs cancelled via DELETE before pickup.",
            queue.cancelled);

  // One histogram family, stage-labelled; consecutive calls share the
  // HELP/TYPE preamble and every series has identical `le` buckets (the
  // shared Histogram::kBounds), so PromQL can aggregate across stages.
  const auto& lat = service_.stage_latency();
  const char* lat_name = "mpqls_latency_seconds";
  const char* lat_help =
      "Per-stage job latency: admission (HTTP parse+admit), queue (submit->pickup), "
      "prepare (context fetch/compile), solve (summed per-RHS refinement), render "
      "(result serialization), total (submit->terminal).";
  m.histogram(lat_name, lat_help, admission_latency_, {{"stage", "admission"}});
  m.histogram(lat_name, lat_help, lat.queue, {{"stage", "queue"}});
  m.histogram(lat_name, lat_help, lat.prepare, {{"stage", "prepare"}});
  m.histogram(lat_name, lat_help, lat.solve, {{"stage", "solve"}});
  m.histogram(lat_name, lat_help, lat.render, {{"stage", "render"}});
  m.histogram(lat_name, lat_help, lat.total, {{"stage", "total"}});

  const auto store = service_.matrix_store().stats();
  m.gauge("mpqls_store_entries", "Matrices resident in the content-addressed store.",
          static_cast<std::uint64_t>(store.entries));
  m.gauge("mpqls_store_bytes", "Bytes resident in the content-addressed store.",
          static_cast<std::uint64_t>(store.bytes));
  m.gauge("mpqls_store_capacity_bytes", "Byte budget of the content-addressed store.",
          static_cast<std::uint64_t>(store.capacity_bytes));
  m.counter("mpqls_store_hits_total", "matrix_ref resolutions served from the store.",
            store.hits);
  m.counter("mpqls_store_misses_total",
            "matrix_ref resolutions that missed (each answers 404: re-upload and retry).",
            store.misses);
  m.counter("mpqls_store_puts_total",
            "Matrix uploads accepted (idempotent re-puts of a resident hash included).",
            store.puts);
  m.counter("mpqls_store_evictions_total", "Matrices evicted by LRU byte pressure.",
            store.evictions);

  const auto wire_family = [&m](const char* name, const char* help, std::uint64_t json_value,
                                std::uint64_t binary_value) {
    m.counter(name, help, json_value, {{"encoding", "json"}});
    m.counter(name, help, binary_value, {{"encoding", "binary"}});
  };
  wire_family("mpqls_wire_requests_total",
              "Job submissions and matrix uploads received, by body encoding.",
              wire_json_.requests.load(), wire_binary_.requests.load());
  wire_family("mpqls_wire_request_bytes_total",
              "Body bytes received by submits and uploads, by encoding.",
              wire_json_.request_bytes.load(), wire_binary_.request_bytes.load());
  wire_family("mpqls_wire_responses_total", "Result payloads served, by encoding.",
              wire_json_.responses.load(), wire_binary_.responses.load());
  wire_family("mpqls_wire_response_bytes_total", "Result payload bytes served, by encoding.",
              wire_json_.response_bytes.load(), wire_binary_.response_bytes.load());

  // Distributed shard-group telemetry: zero on single-node workers, so
  // the series only move once distributed jobs run here.
  m.counter("mpqls_dist_jobs_total", "Jobs this rank solved as part of a shard group.",
            stats.dist.jobs);
  m.counter("mpqls_dist_solves_total", "Per-RHS distributed solves executed on this rank.",
            stats.dist.solves);
  m.counter("mpqls_dist_exchange_rounds_total",
            "Pairwise amplitude exchanges performed by this rank.",
            stats.dist.exchange_rounds);
  m.counter("mpqls_dist_bytes_moved_total",
            "Amplitude bytes this rank shipped to peers during exchanges.",
            stats.dist.bytes_moved);
  m.counter("mpqls_dist_exchange_seconds_total",
            "Wall clock this rank spent waiting in peer exchanges.",
            stats.dist.exchange_seconds);
  m.counter("mpqls_dist_local_seconds_total",
            "Wall clock this rank spent applying local shard ops.",
            stats.dist.local_seconds);
  m.counter("mpqls_dist_plan_naive_rounds_total",
            "Exchange rounds an unscheduled plan would have executed.",
            stats.dist.plan_naive_rounds);
  m.counter("mpqls_dist_plan_scheduled_rounds_total",
            "Exchange rounds the scheduled plans actually executed.",
            stats.dist.plan_scheduled_rounds);
  m.gauge("mpqls_dist_active_groups",
          "Shard groups currently registered with this daemon's exchange hub.",
          static_cast<std::uint64_t>(shard_hub_.active_groups().size()));

  m.counter("mpqls_http_requests_total", "Fully parsed HTTP requests.", http.requests);
  m.counter("mpqls_http_parse_errors_total",
            "Requests rejected by the parser (400/413/431/501/505).", http.parse_errors);
  m.counter("mpqls_http_connections_accepted_total", "TCP connections accepted.",
            http.connections_accepted);
  m.counter("mpqls_http_connections_rejected_total",
            "TCP connections refused over the connection limit.", http.connections_rejected);
  m.gauge("mpqls_http_connections_open", "Currently open TCP connections.",
          http.connections_open);
  return m.str();
}

}  // namespace mpqls::net
