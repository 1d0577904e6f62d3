// Loopback integration tests for the networked solver daemon: concurrent
// keep-alive submissions whose results match the synchronous
// SolverService path bit-for-bit, live Prometheus metrics, 429
// backpressure when the bounded queue saturates, 503 + drain semantics on
// shutdown, and precise HTTP error codes for hostile input.
#include "net/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/trace.hpp"
#include "net/http_client.hpp"
#include "service/json_io.hpp"
#include "wire/codec.hpp"

namespace mpqls::net {
namespace {

using namespace std::chrono_literals;

constexpr const char* kPoissonJob = R"({
  "id": "poisson1d-multi-rhs",
  "matrix": {"scenario": "poisson1d", "n": 8},
  "rhs": {"kind": "random", "count": 3, "seed": 21},
  "options": {"eps": 1e-10, "qsvt": {"backend": "matrix", "eps_l": 1e-2}}
})";

constexpr const char* kTridiagJob = R"({
  "id": "tridiag",
  "matrix": {"scenario": "tridiagonal", "n": 8},
  "rhs": {"kind": "random", "count": 2, "seed": 22},
  "options": {"eps": 1e-9, "qsvt": {"backend": "matrix", "eps_l": 2e-2}}
})";

DaemonOptions loopback_options() {
  DaemonOptions o;
  o.port = 0;  // ephemeral
  o.service.cache_capacity = 4;
  o.service.solve_threads = 2;
  o.service.job_threads = 2;
  return o;
}

/// POST a job and return its assigned id (asserts 202).
std::string submit(HttpClient& client, const std::string& body) {
  const auto response = client.post("/v1/jobs", body);
  EXPECT_EQ(response.status, 202) << response.body;
  return Json::parse(response.body).at("job_id").as_string();
}

Json poll_until_terminal(HttpClient& client, const std::string& job_id,
                         std::chrono::seconds timeout = 60s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto response = client.get("/v1/jobs/" + job_id);
    EXPECT_EQ(response.status, 200) << response.body;
    Json status = Json::parse(response.body);
    const std::string state = status.at("state").as_string();
    if (state == "done" || state == "failed" || state == "cancelled") return status;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "timed out polling " << job_id;
      return status;
    }
    std::this_thread::sleep_for(5ms);
  }
}

/// Value of a (label-free) sample line in Prometheus exposition text.
double metric_value(const std::string& text, const std::string& name) {
  const std::string needle = "\n" + name + " ";
  const auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "metric " << name << " missing";
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + needle.size()));
}

/// Value of a sample line carrying a single precision="..." label.
double tier_metric_value(const std::string& text, const std::string& name,
                         const std::string& tier) {
  const std::string needle = "\n" + name + "{precision=\"" + tier + "\"} ";
  const auto pos = text.find(needle);
  EXPECT_NE(pos, std::string::npos) << "metric " << name << "{" << tier << "} missing";
  if (pos == std::string::npos) return -1.0;
  return std::stod(text.substr(pos + needle.size()));
}

TEST(SolverDaemon, HealthzAnswersOnEphemeralPort) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  ASSERT_NE(daemon.port(), 0);

  HttpClient client("127.0.0.1", daemon.port());
  const auto response = client.get("/v1/healthz");
  EXPECT_EQ(response.status, 200);
  EXPECT_EQ(Json::parse(response.body).at("status").as_string(), "ok");
  daemon.drain(5000ms);
}

TEST(SolverDaemon, ConcurrentJobsMatchSynchronousPathBitwise) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  const std::uint16_t port = daemon.port();

  // Two clients submit concurrently over their own keep-alive connections;
  // the first also re-submits the poisson job so the context cache gets a
  // same-matrix hit.
  auto run_client = [port](std::vector<std::string> bodies) {
    HttpClient client("127.0.0.1", port);
    std::vector<Json> results;
    std::vector<std::string> ids;
    for (const auto& body : bodies) ids.push_back(submit(client, body));
    for (const auto& id : ids) {
      Json status = poll_until_terminal(client, id);
      EXPECT_EQ(status.at("state").as_string(), "done") << status.dump();
      results.push_back(status);
    }
    return results;
  };
  auto poisson_future = std::async(std::launch::async, run_client,
                                   std::vector<std::string>{kPoissonJob, kPoissonJob});
  auto tridiag_future =
      std::async(std::launch::async, run_client, std::vector<std::string>{kTridiagJob});
  const auto poisson_statuses = poisson_future.get();
  const auto tridiag_statuses = tridiag_future.get();

  // Reference: the same requests through the synchronous in-process path
  // on a fresh service. Results must agree bit-for-bit.
  service::SolverService reference({.cache_capacity = 4, .solve_threads = 1, .job_threads = 1});
  const auto check_bitwise = [&reference](const Json& status, const char* job_text) {
    const auto request = service::request_from_json(Json::parse(job_text));
    const auto want = reference.solve(request);
    const auto& got_solves = status.at("result").at("solves").as_array();
    ASSERT_EQ(got_solves.size(), want.solves.size());
    EXPECT_TRUE(status.at("result").at("all_converged").as_bool());
    for (std::size_t k = 0; k < want.solves.size(); ++k) {
      const auto& got_x = got_solves[k].at("report").at("x").as_array();
      const auto& want_x = want.solves[k].report.x;
      ASSERT_EQ(got_x.size(), want_x.size());
      for (std::size_t i = 0; i < want_x.size(); ++i) {
        // JSON numbers round-trip losslessly, so bitwise comparison of the
        // doubles is exact.
        EXPECT_EQ(got_x[i].as_number(), want_x[i]) << "solve " << k << " component " << i;
      }
    }
  };
  check_bitwise(poisson_statuses[0], kPoissonJob);
  check_bitwise(poisson_statuses[1], kPoissonJob);
  check_bitwise(tridiag_statuses[0], kTridiagJob);

  // Metrics reflect what just happened: 3 accepted jobs, 2 distinct
  // matrices prepared, 1 cache hit from the repeated poisson job, and an
  // empty queue now that everything is terminal.
  HttpClient client("127.0.0.1", port);
  const auto metrics = client.get("/v1/metrics");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.headers.size(), 0u);
  const std::string& text = metrics.body;
  EXPECT_EQ(metric_value(text, "mpqls_jobs_accepted_total"), 3.0);
  EXPECT_EQ(metric_value(text, "mpqls_jobs_done_total"), 3.0);
  EXPECT_EQ(metric_value(text, "mpqls_cache_misses_total"), 2.0);
  EXPECT_EQ(metric_value(text, "mpqls_cache_hits_total"), 1.0);
  EXPECT_EQ(metric_value(text, "mpqls_queue_depth"), 0.0);
  EXPECT_EQ(metric_value(text, "mpqls_jobs_running"), 0.0);
  EXPECT_EQ(metric_value(text, "mpqls_rhs_solved_total"), 8.0);  // 3 + 3 + 2
  // Fixed-precision jobs attribute every replay to the double tier: at
  // least the 8 initial solves, plus however many refinement rounds.
  EXPECT_GE(tier_metric_value(text, "mpqls_precision_solves_total", "double"), 8.0);
  EXPECT_EQ(metric_value(text, "mpqls_precision_switches_total"), 0.0);
  EXPECT_GT(metric_value(text, "mpqls_solve_seconds_total"), 0.0);
  EXPECT_GE(metric_value(text, "mpqls_http_requests_total"), 7.0);  // 3 posts + polls

  EXPECT_TRUE(daemon.drain(5000ms));
}

TEST(SolverDaemon, FrameResultOfRenderedJobMatchesSynchronousEncoding) {
  // A finished daemon job keeps only its rendered JSON; GET /result with a
  // frame Accept header rebuilds the frame from that text. It must be the
  // frame of the synchronous solve's result, byte for byte, once the wall
  // clock fields (which no two runs share) are taken from the job.
  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());
  const std::string id = submit(client, kPoissonJob);
  EXPECT_EQ(poll_until_terminal(client, id).at("state").as_string(), "done");

  const auto status = daemon.service().job_status(id);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->result, nullptr);
  ASSERT_NE(status->rendered, nullptr);

  const auto frame = client.get("/v1/jobs/" + id + "/result", {{"Accept", wire::kContentType}});
  ASSERT_EQ(frame.status, 200) << frame.body;
  const auto got = wire::decode_result(frame.body);

  service::SolverService reference({.cache_capacity = 4, .solve_threads = 1, .job_threads = 1});
  auto want = reference.solve(service::request_from_json(Json::parse(kPoissonJob)));
  want.prepare_seconds = got.prepare_seconds;
  want.total_seconds = got.total_seconds;
  ASSERT_EQ(want.solves.size(), got.solves.size());
  for (std::size_t k = 0; k < want.solves.size(); ++k) {
    want.solves[k].solve_seconds = got.solves[k].solve_seconds;
    want.solves[k].report.program_compile_seconds = got.solves[k].report.program_compile_seconds;
  }
  EXPECT_EQ(frame.body, wire::encode_result(want));
  EXPECT_TRUE(daemon.drain(5000ms));
}

TEST(SolverDaemon, AdaptiveJobExportsPrecisionTierMetrics) {
  // A gate-level adaptive job reached purely through the HTTP front door
  // (the JSON knob, not C++ options) must run the escalation schedule and
  // surface it in /v1/metrics as the labeled mpqls_precision_* families.
  // Matrix/seed and the 1e-6 single floor match the service-level adaptive
  // test, where every lane starts on single and escalates to double.
  constexpr const char* kAdaptiveGateJob = R"({
    "id": "adaptive-gate",
    "matrix": {"scenario": "random", "n": 16, "kappa": 10, "seed": 601},
    "rhs": {"kind": "random", "count": 2, "seed": 24},
    "options": {"eps": 1e-10, "escalation": {"single_floor": 1e-6},
                "qsvt": {"backend": "gate", "eps_l": 1e-2, "precision": "adaptive"}}
  })";

  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  const auto status = poll_until_terminal(client, submit(client, kAdaptiveGateJob));
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_TRUE(status.at("result").at("all_converged").as_bool());

  const std::string text = client.get("/v1/metrics").body;
  // Every tier label renders on both per-tier families, even idle ones.
  for (const char* tier : {"single", "double"}) {
    EXPECT_GE(tier_metric_value(text, "mpqls_precision_solves_total", tier), 0.0);
    EXPECT_GE(tier_metric_value(text, "mpqls_precision_iterations_total", tier), 0.0);
  }
  // The schedule started low and escalated: the single tier did real work
  // (the initial solve and the refinement rounds) and at least one switch
  // per solve was counted.
  EXPECT_GT(tier_metric_value(text, "mpqls_precision_solves_total", "single"), 0.0);
  EXPECT_GT(tier_metric_value(text, "mpqls_precision_iterations_total", "single"), 0.0);
  EXPECT_GE(metric_value(text, "mpqls_precision_switches_total"), 2.0);  // 2 RHS

  daemon.drain(5000ms);
}

TEST(SolverDaemon, SaturatedQueueAnswers429InsteadOfGrowing) {
  auto options = loopback_options();
  options.service.job_threads = 1;
  options.service.max_pending_jobs = 2;
  SolverDaemon daemon(options);
  daemon.start();

  // Occupy the single job worker so accepted jobs deterministically stay
  // queued while we probe the admission bound.
  std::promise<void> release;
  auto blocker = daemon.service().run_on_job_pool(
      [gate = release.get_future().share()] { gate.wait(); });

  HttpClient client("127.0.0.1", daemon.port());
  const std::string id1 = submit(client, kPoissonJob);
  const std::string id2 = submit(client, kTridiagJob);

  const auto rejected = client.post("/v1/jobs", kPoissonJob);
  EXPECT_EQ(rejected.status, 429);
  ASSERT_NE(find_header(rejected.headers, "Retry-After"), nullptr);

  // The bound is observable before it resolves: depth 2, rejection counted.
  const auto before = client.get("/v1/metrics").body;
  EXPECT_EQ(metric_value(before, "mpqls_queue_depth"), 2.0);
  EXPECT_EQ(metric_value(before, "mpqls_jobs_rejected_total"), 1.0);
  EXPECT_EQ(metric_value(before, "mpqls_queue_capacity"), 2.0);

  release.set_value();
  blocker.get();
  EXPECT_EQ(poll_until_terminal(client, id1).at("state").as_string(), "done");
  EXPECT_EQ(poll_until_terminal(client, id2).at("state").as_string(), "done");

  // Capacity freed: the retry is admitted.
  const std::string id3 = submit(client, kPoissonJob);
  EXPECT_EQ(poll_until_terminal(client, id3).at("state").as_string(), "done");
  EXPECT_TRUE(daemon.drain(5000ms));
}

TEST(SolverDaemon, DrainFinishesInFlightJobsAndRefusesNewOnes) {
  auto options = loopback_options();
  options.service.job_threads = 1;
  SolverDaemon daemon(options);
  daemon.start();
  const std::uint16_t port = daemon.port();

  std::promise<void> release;
  auto blocker = daemon.service().run_on_job_pool(
      [gate = release.get_future().share()] { gate.wait(); });

  HttpClient client("127.0.0.1", port);
  const std::string in_flight = submit(client, kPoissonJob);

  // Drain on another thread: it must wait for the queued job, serving
  // polls meanwhile.
  auto drained = std::async(std::launch::async, [&daemon] { return daemon.drain(30000ms); });
  while (!daemon.draining()) std::this_thread::sleep_for(1ms);

  // Admission is closed during the drain; polling still works.
  const auto refused = client.post("/v1/jobs", kTridiagJob);
  EXPECT_EQ(refused.status, 503);
  const auto mid_drain = client.get("/v1/jobs/" + in_flight);
  EXPECT_EQ(mid_drain.status, 200);

  release.set_value();
  blocker.get();
  EXPECT_TRUE(drained.get());  // in-flight job completed inside the grace window

  // The job really finished (registry outlives the HTTP server) and the
  // server is gone: new connections fail.
  const auto status = daemon.service().job_status(in_flight);
  ASSERT_TRUE(status.has_value());
  EXPECT_EQ(status->state, service::JobState::kDone);
  // A daemon job keeps its result as the rendered JSON only.
  EXPECT_EQ(status->result, nullptr);
  ASSERT_NE(status->rendered, nullptr);
  EXPECT_TRUE(Json::parse(*status->rendered).at("all_converged").as_bool());
  HttpClient dead("127.0.0.1", port);
  EXPECT_THROW(dead.get("/v1/healthz"), std::exception);
}

TEST(SolverDaemon, HostileInputGetsPreciseStatusCodes) {
  auto options = loopback_options();
  options.limits.max_body_bytes = 512;
  SolverDaemon daemon(options);
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // Malformed JSON: 400 with the byte offset from JsonParseError.
  const auto bad_json = client.post("/v1/jobs", "{\"id\": }");
  EXPECT_EQ(bad_json.status, 400);
  EXPECT_NE(bad_json.body.find("at byte"), std::string::npos) << bad_json.body;

  // Well-formed JSON with a bad schema is admitted (validation runs on
  // the worker, never the event loop) and fails with the message.
  const auto bad_schema =
      Json::parse(client.post("/v1/jobs", R"({"matrix": {"scenario": "warp"}})").body);
  const auto failed = poll_until_terminal(client, bad_schema.at("job_id").as_string());
  EXPECT_EQ(failed.at("state").as_string(), "failed");
  EXPECT_NE(failed.at("error").as_string().find("unknown matrix scenario"), std::string::npos);

  // A tiny body demanding a huge scenario matrix is bounded the same way:
  // admission, then a failed job — the event loop and memory stay safe.
  const auto huge_n = Json::parse(
      client
          .post("/v1/jobs",
                R"({"matrix": {"scenario": "poisson1d", "n": 200000},
                    "rhs": {"kind": "point", "index": 0}})")
          .body);
  const auto failed_n = poll_until_terminal(client, huge_n.at("job_id").as_string());
  EXPECT_EQ(failed_n.at("state").as_string(), "failed");
  EXPECT_NE(failed_n.at("error").as_string().find("dimension out of range"), std::string::npos);

  // Unknown job id: 404. Unknown route: 404. Wrong method: 405.
  EXPECT_EQ(client.get("/v1/jobs/job-999").status, 404);
  EXPECT_EQ(client.get("/v1/frobnicate").status, 404);
  EXPECT_EQ(client.post("/v1/healthz", "{}").status, 405);

  // Body over the daemon's cap: 413 decided from the header alone.
  const auto huge = client.post("/v1/jobs", std::string(600, ' '));
  EXPECT_EQ(huge.status, 413);

  daemon.drain(5000ms);
}

TEST(SolverDaemon, KeepAliveSurvives4xxAndOversizedJobIds) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // Router-level 4xx responses (404/405/409) keep the connection open —
  // only parser-level errors close it. A polling client that hits an
  // unknown id must not pay a reconnect per poll.
  EXPECT_EQ(client.get("/v1/jobs/job-42").status, 404);
  EXPECT_EQ(client.post("/v1/healthz", "{}").status, 405);
  // An id as long as the head cap allows round-trips to a clean 404.
  EXPECT_EQ(client.get("/v1/jobs/" + std::string(4096, 'z')).status, 404);
  EXPECT_EQ(client.get("/v1/healthz").status, 200);

  // All of it parsed cleanly on ONE TCP connection: router 4xx is not a
  // parse error and must not cost the keep-alive.
  const auto metrics = client.get("/v1/metrics").body;
  EXPECT_EQ(metric_value(metrics, "mpqls_http_parse_errors_total"), 0.0);
  EXPECT_EQ(metric_value(metrics, "mpqls_http_connections_accepted_total"), 1.0);
  daemon.drain(5000ms);
}

TEST(SolverDaemon, CancelEndpointCancelsQueuedJobsOnly) {
  auto options = loopback_options();
  options.service.job_threads = 1;
  SolverDaemon daemon(options);
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // Hold the single job worker so submissions stay queued.
  std::promise<void> release;
  auto blocker = daemon.service().run_on_job_pool(
      [gate = release.get_future().share()] { gate.wait(); });

  const std::string doomed = submit(client, kPoissonJob);
  const std::string kept = submit(client, kTridiagJob);

  const auto cancelled = client.del("/v1/jobs/" + doomed);
  EXPECT_EQ(cancelled.status, 200) << cancelled.body;
  EXPECT_EQ(Json::parse(cancelled.body).at("state").as_string(), "cancelled");
  EXPECT_EQ(client.del("/v1/jobs/" + doomed).status, 409);  // already terminal
  EXPECT_EQ(client.del("/v1/jobs/job-987654").status, 404);

  release.set_value();
  blocker.get();

  EXPECT_EQ(poll_until_terminal(client, doomed).at("state").as_string(), "cancelled");
  EXPECT_EQ(poll_until_terminal(client, kept).at("state").as_string(), "done");
  const auto metrics = client.get("/v1/metrics").body;
  EXPECT_EQ(metric_value(metrics, "mpqls_jobs_cancelled_total"), 1.0);
  EXPECT_EQ(metric_value(metrics, "mpqls_jobs_done_total"), 1.0);
  daemon.drain(5000ms);
}

TEST(SolverDaemon, TraceHeaderIsAdoptedAndSpansCoverTheLifecycle) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // A client-minted id in x-mpqls-trace must be adopted, not replaced —
  // this is the propagation contract the coordinator relies on.
  const std::string want_trace = trace::mint_trace_id().hex();
  const auto accepted =
      client.post("/v1/jobs", kPoissonJob, "application/json", {{"x-mpqls-trace", want_trace}});
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const Json ack = Json::parse(accepted.body);
  EXPECT_EQ(ack.at("trace_id").as_string(), want_trace);
  const std::string job_id = ack.at("job_id").as_string();

  const Json status = poll_until_terminal(client, job_id);
  ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
  EXPECT_EQ(status.at("trace_id").as_string(), want_trace);

  // The trace endpoint returns the finished span tree for the whole job
  // lifecycle: front-door admission, queue wait, the run umbrella and the
  // prepare/render stages under it.
  const auto response = client.get("/v1/jobs/" + job_id + "/trace");
  ASSERT_EQ(response.status, 200) << response.body;
  const Json trace = Json::parse(response.body);
  EXPECT_EQ(trace.at("trace_id").as_string(), want_trace);
  EXPECT_EQ(trace.at("job_id").as_string(), job_id);
  EXPECT_EQ(trace.at("state").as_string(), "done");
  EXPECT_EQ(trace.at("spans_dropped").as_number(), 0.0);

  std::set<std::string> names;
  double run_id = 0.0;
  for (const auto& span : trace.at("spans").as_array()) {
    names.insert(span.at("name").as_string());
    EXPECT_FALSE(span.contains("running")) << span.dump();  // all finished
    EXPECT_GE(span.at("duration_us").as_number(), 0.0);
    if (span.at("name").as_string() == "run") run_id = span.at("id").as_number();
  }
  for (const char* want : {"admission", "queue", "run", "prepare", "render"}) {
    EXPECT_EQ(names.count(want), 1u) << "missing span " << want;
  }
  // Stage spans hang off the run umbrella, not the root.
  for (const auto& span : trace.at("spans").as_array()) {
    if (span.at("name").as_string() == "render") {
      EXPECT_EQ(span.at("parent").as_number(), run_id);
    }
  }

  // Unknown job: 404, same as the status route.
  EXPECT_EQ(client.get("/v1/jobs/job-999/trace").status, 404);

  // The per-stage latency histograms saw the job...
  const std::string metrics = client.get("/v1/metrics").body;
  for (const char* stage : {"admission", "queue", "prepare", "solve", "render", "total"}) {
    const std::string needle =
        "mpqls_latency_seconds_bucket{stage=\"" + std::string(stage) + "\",le=\"+Inf\"} ";
    const auto pos = metrics.find(needle);
    ASSERT_NE(pos, std::string::npos) << "missing histogram stage " << stage;
    EXPECT_GE(std::stod(metrics.substr(pos + needle.size())), 1.0) << stage;
  }

  // ...and the flight recorder retained it (every job ranks among the
  // 8 slowest of a 1-job run), trace attached.
  const Json slow = Json::parse(client.get("/v1/debug/slow").body);
  ASSERT_GE(slow.at("count").as_number(), 1.0);
  const auto& worst = slow.at("slow_jobs").as_array()[0];
  EXPECT_EQ(worst.at("job_id").as_string(), job_id);
  EXPECT_EQ(worst.at("state").as_string(), "done");
  EXPECT_GT(worst.at("total_seconds").as_number(), 0.0);
  EXPECT_EQ(worst.at("trace").at("trace_id").as_string(), want_trace);

  daemon.drain(5000ms);
}

TEST(SolverDaemon, BodyTraceIdIsAdoptedWhenNoHeaderIsPresent) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // JSON bodies can carry the id inline (parity with the wire-v3 trailing
  // field); the header still wins when both are present.
  const std::string body_trace = trace::mint_trace_id().hex();
  Json job = Json::parse(kPoissonJob);
  job["trace_id"] = body_trace;
  const auto from_body = Json::parse(client.post("/v1/jobs", job.dump()).body);
  EXPECT_EQ(from_body.at("trace_id").as_string(), body_trace);

  const std::string header_trace = trace::mint_trace_id().hex();
  const auto from_header = Json::parse(
      client.post("/v1/jobs", job.dump(), "application/json", {{"x-mpqls-trace", header_trace}})
          .body);
  EXPECT_EQ(from_header.at("trace_id").as_string(), header_trace);

  // No id anywhere: the front door mints one, and it is well-formed.
  const auto minted = Json::parse(client.post("/v1/jobs", kPoissonJob).body);
  trace::TraceId parsed;
  EXPECT_TRUE(trace::TraceId::parse(minted.at("trace_id").as_string(), parsed));
  EXPECT_FALSE(parsed.zero());

  // A malformed header is ignored, not an error: the job is admitted
  // under a fresh id.
  const auto garbled =
      client.post("/v1/jobs", kPoissonJob, "application/json", {{"x-mpqls-trace", "not-hex"}});
  EXPECT_EQ(garbled.status, 202);
  EXPECT_NE(Json::parse(garbled.body).at("trace_id").as_string(), "not-hex");

  for (const auto* ack : {&from_body, &from_header, &minted}) {
    poll_until_terminal(client, ack->at("job_id").as_string());
  }
  daemon.drain(5000ms);
}

TEST(SolverDaemon, ListingIsBoundedNewestFirstWithQueryLimit) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  std::vector<std::string> ids;
  for (int i = 0; i < 3; ++i) ids.push_back(submit(client, kPoissonJob));
  for (const auto& id : ids) poll_until_terminal(client, id);

  const auto all = Json::parse(client.get("/v1/jobs").body);
  ASSERT_EQ(all.at("count").as_number(), 3.0);
  EXPECT_EQ(all.at("jobs").as_array()[0].at("job_id").as_string(), ids[2]);

  const auto limited = Json::parse(client.get("/v1/jobs?limit=2").body);
  ASSERT_EQ(limited.at("count").as_number(), 2.0);
  EXPECT_EQ(limited.at("jobs").as_array()[0].at("job_id").as_string(), ids[2]);
  EXPECT_EQ(limited.at("jobs").as_array()[1].at("job_id").as_string(), ids[1]);

  EXPECT_EQ(client.get("/v1/jobs?limit=bogus").status, 400);
  daemon.drain(5000ms);
}

TEST(SolverDaemon, RetiredBackendKeysAreIgnored) {
  SolverDaemon daemon(loopback_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // Replay has one implementation, so the top-level "backend" and the
  // long-form options.qsvt.exec_backend keys are unknown keys now: a job
  // carrying them is admitted and solves exactly like the job without.
  constexpr const char* kPlainJob = R"({
    "id": "plain",
    "matrix": {"scenario": "poisson1d", "n": 8},
    "rhs": {"kind": "random", "count": 2, "seed": 3},
    "options": {"eps": 1e-9, "qsvt": {"backend": "gate", "eps_l": 1e-2}}
  })";
  constexpr const char* kRetiredKeysJob = R"({
    "id": "retired-keys",
    "backend": "reference",
    "matrix": {"scenario": "poisson1d", "n": 8},
    "rhs": {"kind": "random", "count": 2, "seed": 3},
    "options": {"eps": 1e-9,
                "qsvt": {"backend": "gate", "eps_l": 1e-2, "exec_backend": "imaginary-gpu"}}
  })";
  const auto plain = poll_until_terminal(client, submit(client, kPlainJob));
  const auto retired = poll_until_terminal(client, submit(client, kRetiredKeysJob));
  ASSERT_EQ(plain.at("state").as_string(), "done") << plain.dump();
  ASSERT_EQ(retired.at("state").as_string(), "done") << retired.dump();

  const Json& result = retired.at("result");
  EXPECT_FALSE(result.contains("backend"));
  // The same options fingerprint: the second job is served from the
  // context the first one prepared.
  EXPECT_TRUE(result.at("cache_hit").as_bool());
  const auto& want = plain.at("result").at("solves").as_array();
  const auto& got = result.at("solves").as_array();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t k = 0; k < want.size(); ++k) {
    EXPECT_EQ(got[k].at("report").at("x").dump(), want[k].at("report").at("x").dump())
        << "solve " << k;
  }

  const auto health = Json::parse(client.get("/v1/healthz").body);
  for (const auto& [key, value] : health.as_object()) {
    EXPECT_EQ(key.find("backend"), std::string::npos) << "healthz still has " << key;
  }
  daemon.drain(5000ms);
}

}  // namespace
}  // namespace mpqls::net
