// Loopback integration tests for the sharded solver cluster: affinity
// routing warming exactly one worker's cache, failover mid-stream losing
// no accepted jobs (results bit-for-bit against the single-node sync
// path), breaker behaviour against a killed worker, proxied
// poll/cancel/listing, and the aggregated metrics endpoint.
#include "cluster/test_cluster.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "common/trace.hpp"
#include "net/http_client.hpp"
#include "service/json_io.hpp"
#include "service/solver_service.hpp"

namespace mpqls::cluster {
namespace {

using namespace std::chrono_literals;

std::string job_json(int matrix_seed, const std::string& label) {
  Json j = Json::object();
  j["id"] = label;
  Json m = Json::object();
  m["scenario"] = "random";
  m["n"] = 8;
  m["kappa"] = 8.0;
  m["seed"] = static_cast<std::uint64_t>(matrix_seed);
  j["matrix"] = std::move(m);
  Json rhs = Json::object();
  rhs["kind"] = "random";
  rhs["count"] = 2;
  rhs["seed"] = static_cast<std::uint64_t>(5);
  j["rhs"] = std::move(rhs);
  Json opt = Json::object();
  opt["eps"] = 1e-9;
  Json qsvt = Json::object();
  qsvt["backend"] = "matrix";
  qsvt["eps_l"] = 1e-2;
  opt["qsvt"] = std::move(qsvt);
  j["options"] = std::move(opt);
  return j.dump();
}

TestClusterOptions small_cluster(std::size_t workers) {
  TestClusterOptions o;
  o.workers = workers;
  o.worker.service.cache_capacity = 4;
  o.worker.service.solve_threads = 1;
  o.worker.service.job_threads = 1;
  o.coordinator.probe_interval = 100ms;
  return o;
}

std::string submit_ok(net::HttpClient& client, const std::string& body) {
  const auto response = client.post("/v1/jobs", body);
  EXPECT_EQ(response.status, 202) << response.body;
  return Json::parse(response.body).at("job_id").as_string();
}

Json poll_until_terminal(net::HttpClient& client, const std::string& job_id,
                         std::chrono::seconds timeout = 60s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto response = client.get("/v1/jobs/" + job_id);
    if (response.status == 200) {
      Json status = Json::parse(response.body);
      const std::string state = status.at("state").as_string();
      if (state == "done" || state == "failed" || state == "cancelled") return status;
    }
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "timed out polling " << job_id;
      return Json::object();
    }
    std::this_thread::sleep_for(5ms);
  }
}

/// Bitwise comparison against the synchronous single-node path — the
/// cluster must be a pure routing layer, never a numerics layer.
void expect_bitwise_match(const Json& status, const std::string& job_text) {
  service::SolverService reference(
      {.cache_capacity = 2, .solve_threads = 1, .job_threads = 1});
  const auto want = reference.solve(service::request_from_json(Json::parse(job_text)));
  const auto& got_solves = status.at("result").at("solves").as_array();
  ASSERT_EQ(got_solves.size(), want.solves.size());
  for (std::size_t k = 0; k < want.solves.size(); ++k) {
    const auto& got_x = got_solves[k].at("report").at("x").as_array();
    ASSERT_EQ(got_x.size(), want.solves[k].report.x.size());
    for (std::size_t i = 0; i < got_x.size(); ++i) {
      EXPECT_EQ(got_x[i].as_number(), want.solves[k].report.x[i])
          << "solve " << k << " component " << i;
    }
  }
}

TEST(Cluster, AffinityRoutingKeepsARepeatedMatrixOnOneWarmWorker) {
  TestCluster cluster(small_cluster(3));
  net::HttpClient client("127.0.0.1", cluster.port());

  std::vector<std::string> ids;
  for (int i = 0; i < 6; ++i) ids.push_back(submit_ok(client, job_json(42, "rep-" + std::to_string(i))));
  for (const auto& id : ids) {
    EXPECT_EQ(poll_until_terminal(client, id).at("state").as_string(), "done");
  }

  // Exactly one worker saw the matrix: one miss, five hits, and the other
  // workers' caches never even missed.
  std::size_t workers_touched = 0;
  std::uint64_t hits = 0, misses = 0;
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    const auto stats = cluster.worker(w).service().cache_stats();
    if (stats.hits + stats.misses > 0) ++workers_touched;
    hits += stats.hits;
    misses += stats.misses;
  }
  EXPECT_EQ(workers_touched, 1u);
  EXPECT_EQ(misses, 1u);
  EXPECT_EQ(hits, 5u);

  const auto routing = cluster.coordinator().routing_stats();
  EXPECT_EQ(routing.submits_accepted, 6u);
  EXPECT_EQ(routing.affinity_hits, 6u);
  EXPECT_EQ(routing.spillovers, 0u);
  cluster.stop();
}

TEST(Cluster, FailoverMidStreamLosesNoAcceptedJobsAndMatchesSyncBitwise) {
  TestCluster cluster(small_cluster(3));
  net::HttpClient client("127.0.0.1", cluster.port());
  const std::string body = job_json(7, "failover");

  // Find the matrix's home worker, then drain it mid-stream: admission
  // closes (503) while its accepted jobs finish and polls keep working.
  const std::string first = submit_ok(client, body);
  ASSERT_EQ(first[0], 'w');
  const std::size_t home = static_cast<std::size_t>(first[1] - '0');
  ASSERT_LT(home, cluster.worker_count());

  std::vector<std::string> ids = {first};
  for (int i = 0; i < 2; ++i) ids.push_back(submit_ok(client, body));

  // "Breaker-open" the home worker mid-stream: admission closes (503)
  // while its already-accepted jobs keep solving and polls keep serving.
  cluster.worker(home).close_admission();

  // Submits keep being accepted — they spill to ring neighbours with the
  // closed worker excluded. Nothing is lost, nothing 5xxes.
  std::vector<std::string> after;
  for (int i = 0; i < 3; ++i) after.push_back(submit_ok(client, body));
  for (const auto& id : after) {
    EXPECT_NE(static_cast<std::size_t>(id[1] - '0'), home)
        << "spilled submit landed on the drained worker";
  }

  // Every job accepted before AND after the drain reaches done with
  // results identical to the single-node synchronous path.
  ids.insert(ids.end(), after.begin(), after.end());
  for (const auto& id : ids) {
    const Json status = poll_until_terminal(client, id);
    ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
    expect_bitwise_match(status, body);
  }

  const auto routing = cluster.coordinator().routing_stats();
  EXPECT_EQ(routing.submits_accepted, 6u);
  EXPECT_GE(routing.spillovers, 3u);
  EXPECT_GE(routing.retries, 3u);  // each post-drain submit skipped the 503 home
  cluster.stop();
}

TEST(Cluster, KilledWorkerTripsTheBreakerAndSubmitsKeepFlowing) {
  auto options = small_cluster(2);
  options.coordinator.breaker.failure_threshold = 1;
  options.coordinator.breaker.open_duration = 60000ms;  // stays open for the test
  options.coordinator.probe_interval = 50ms;
  options.coordinator.worker_deadlines.connect = 500ms;
  TestCluster cluster(options);
  net::HttpClient client("127.0.0.1", cluster.port());

  // Kill worker 0 outright (drain stops its HTTP server too).
  cluster.worker(0).drain(5000ms);

  // Every matrix still gets solved by the survivor; the dead worker's
  // breaker opens after its first refused connect.
  std::vector<std::string> ids;
  for (int seed = 0; seed < 4; ++seed) {
    ids.push_back(submit_ok(client, job_json(seed + 100, "k-" + std::to_string(seed))));
  }
  for (const auto& id : ids) {
    EXPECT_EQ(id.rfind("w1-", 0), 0u) << id;
    EXPECT_EQ(poll_until_terminal(client, id).at("state").as_string(), "done");
  }

  const auto workers = cluster.coordinator().workers();
  ASSERT_EQ(workers.size(), 2u);
  EXPECT_EQ(workers[0].breaker, BreakerState::kOpen);
  EXPECT_GE(workers[0].breaker_trips, 1u);
  EXPECT_GE(workers[0].transport_failures, 1u);
  EXPECT_EQ(workers[1].breaker, BreakerState::kClosed);

  // healthz reports the degraded-but-serving cluster without blocking.
  const auto health = client.get("/v1/healthz");
  EXPECT_EQ(health.status, 200);
  EXPECT_EQ(Json::parse(health.body).at("workers_healthy").as_number(), 1.0);
  cluster.stop();
}

TEST(Cluster, ProxiesCancelAndListingWithClusterIds) {
  auto options = small_cluster(2);
  TestCluster cluster(options);
  net::HttpClient client("127.0.0.1", cluster.port());

  // Block both workers' single job thread so submitted jobs stay queued
  // and are deterministically cancellable.
  std::promise<void> release;
  auto gate = release.get_future().share();
  std::vector<std::future<void>> blockers;
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    blockers.push_back(cluster.worker(w).service().run_on_job_pool([gate] { gate.wait(); }));
  }

  const std::string queued = submit_ok(client, job_json(11, "to-cancel"));
  const std::string kept = submit_ok(client, job_json(12, "to-keep"));

  // The merged listing shows both ids in cluster form ("w<k>-job-<n>").
  const auto listing = client.get("/v1/jobs?limit=10");
  EXPECT_EQ(listing.status, 200);
  const Json listed = Json::parse(listing.body);
  EXPECT_GE(listed.at("count").as_number(), 2.0);
  bool saw_queued = false, saw_kept = false;
  for (const auto& entry : listed.at("jobs").as_array()) {
    const std::string id = entry.at("job_id").as_string();
    saw_queued = saw_queued || id == queued;
    saw_kept = saw_kept || id == kept;
    EXPECT_EQ(id[0], 'w');
  }
  EXPECT_TRUE(saw_queued);
  EXPECT_TRUE(saw_kept);

  // Cancel through the coordinator; the poll then reports cancelled with
  // the CLUSTER id (the coordinator rewrites the worker's own id).
  const auto cancelled = client.del("/v1/jobs/" + queued);
  EXPECT_EQ(cancelled.status, 200) << cancelled.body;
  EXPECT_EQ(Json::parse(cancelled.body).at("job_id").as_string(), queued);

  release.set_value();
  for (auto& blocker : blockers) blocker.get();

  EXPECT_EQ(poll_until_terminal(client, queued).at("state").as_string(), "cancelled");
  const Json kept_status = poll_until_terminal(client, kept);
  EXPECT_EQ(kept_status.at("state").as_string(), "done");
  EXPECT_EQ(kept_status.at("job_id").as_string(), kept);

  // Cancelling a terminal job is a 409 (proxied verbatim); unknown ids
  // and ids pointing past the worker count are 404.
  EXPECT_EQ(client.del("/v1/jobs/" + kept).status, 409);
  EXPECT_EQ(client.get("/v1/jobs/w9-job-1").status, 404);
  EXPECT_EQ(client.get("/v1/jobs/garbage").status, 404);

  const auto routing = cluster.coordinator().routing_stats();
  EXPECT_GE(routing.proxied_cancels, 2u);
  EXPECT_GE(routing.proxied_polls, 2u);
  cluster.stop();
}

TEST(Cluster, TracePropagatesToTheWorkerAndStitchesUnderTheProxySpan) {
  TestCluster cluster(small_cluster(2));
  net::HttpClient client("127.0.0.1", cluster.port());

  // The client's trace id must survive two hops: coordinator adoption,
  // then header propagation to whichever worker won the route.
  const std::string want_trace = trace::mint_trace_id().hex();
  const auto accepted = client.post("/v1/jobs", job_json(17, "stitched"), "application/json",
                                    {{"x-mpqls-trace", want_trace}});
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const Json ack = Json::parse(accepted.body);
  EXPECT_EQ(ack.at("trace_id").as_string(), want_trace);
  const std::string job_id = ack.at("job_id").as_string();
  ASSERT_EQ(poll_until_terminal(client, job_id).at("state").as_string(), "done");

  // The stitched tree: the coordinator's own proxy span at the root, the
  // worker's spans re-parented beneath it with collision-proofed ids.
  const auto response = client.get("/v1/jobs/" + job_id + "/trace");
  ASSERT_EQ(response.status, 200) << response.body;
  const Json trace = Json::parse(response.body);
  EXPECT_EQ(trace.at("trace_id").as_string(), want_trace);
  EXPECT_EQ(trace.at("job_id").as_string(), job_id);
  EXPECT_EQ(trace.at("state").as_string(), "done");

  constexpr double kWorkerSpanBase = static_cast<double>(1u << 20);
  double proxy_id = 0.0;
  for (const auto& span : trace.at("spans").as_array()) {
    if (span.at("name").as_string() == "proxy") {
      proxy_id = span.at("id").as_number();
      EXPECT_EQ(span.at("parent").as_number(), 0.0);
      EXPECT_EQ(span.at("attrs").at("worker").as_string(), job_id.substr(0, 2));
      EXPECT_EQ(span.at("attrs").at("attempts").as_string(), "1");
    }
  }
  ASSERT_NE(proxy_id, 0.0) << "coordinator proxy span missing";

  bool saw_worker_root = false, saw_nested = false;
  for (const auto& span : trace.at("spans").as_array()) {
    if (span.at("id").as_number() < kWorkerSpanBase) continue;  // coordinator's own
    const double parent = span.at("parent").as_number();
    if (parent == proxy_id) {
      saw_worker_root = true;  // worker top-level (admission/queue/run)
    } else {
      // Nested worker spans keep their (shifted) worker-side parent.
      EXPECT_GE(parent, kWorkerSpanBase) << span.dump();
      saw_nested = true;
    }
    EXPECT_FALSE(span.contains("running")) << span.dump();
  }
  EXPECT_TRUE(saw_worker_root);
  EXPECT_TRUE(saw_nested);

  // The coordinator's own routing latency rides the shared family name.
  const std::string metrics = client.get("/v1/metrics").body;
  EXPECT_NE(metrics.find("mpqls_latency_seconds_bucket{stage=\"route\",le=\"+Inf\"} 1"),
            std::string::npos);
  cluster.stop();
}

TEST(Cluster, MetricsAggregateWorkerFamiliesAndRoutingGauges) {
  TestCluster cluster(small_cluster(2));
  net::HttpClient client("127.0.0.1", cluster.port());

  const std::string id = submit_ok(client, job_json(3, "metrics"));
  EXPECT_EQ(poll_until_terminal(client, id).at("state").as_string(), "done");

  const auto response = client.get("/v1/metrics");
  EXPECT_EQ(response.status, 200);
  const std::string& text = response.body;

  // Coordinator's own counters.
  EXPECT_NE(text.find("mpqls_cluster_submits_total 1"), std::string::npos) << text;
  EXPECT_NE(text.find("mpqls_cluster_workers 2"), std::string::npos);
  // Per-worker routing gauges, labeled.
  EXPECT_NE(text.find("mpqls_cluster_worker_breaker_state{worker=\"w0\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("mpqls_cluster_worker_breaker_state{worker=\"w1\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("mpqls_cluster_worker_affinity_hit_ratio{worker=\"w"),
            std::string::npos);
  // Worker families relabeled and merged: both workers' series present,
  // each family preamble exactly once.
  EXPECT_NE(text.find("mpqls_jobs_accepted_total{worker=\"w0\"}"), std::string::npos);
  EXPECT_NE(text.find("mpqls_jobs_accepted_total{worker=\"w1\"}"), std::string::npos);
  EXPECT_EQ(text.find("# TYPE mpqls_jobs_accepted_total"),
            text.rfind("# TYPE mpqls_jobs_accepted_total"));
  cluster.stop();
}

/// A gate-backend job body carrying "dist_workers": the coordinator must
/// expand it into a shard group rather than routing it whole.
std::string dist_job_json(std::size_t dist_workers, const std::string& label) {
  Json j = Json::object();
  j["id"] = label;
  Json m = Json::object();
  m["scenario"] = "random";
  m["n"] = 8;
  m["kappa"] = 10.0;
  m["seed"] = static_cast<std::uint64_t>(21);
  j["matrix"] = std::move(m);
  Json rhs = Json::object();
  rhs["kind"] = "random";
  rhs["count"] = 1;
  rhs["seed"] = static_cast<std::uint64_t>(9);
  j["rhs"] = std::move(rhs);
  Json opt = Json::object();
  opt["eps"] = 1e-10;
  Json qsvt = Json::object();
  qsvt["backend"] = "gate";
  qsvt["eps_l"] = 1e-2;
  opt["qsvt"] = std::move(qsvt);
  j["options"] = std::move(opt);
  j["dist_workers"] = static_cast<std::uint64_t>(dist_workers);
  return j.dump();
}

TEST(Cluster, DistSubmitFansOutAShardGroupAndEveryRankFinishes) {
  auto options = small_cluster(2);
  options.worker.service.job_threads = 2;  // rank job + exchange headroom
  TestCluster cluster(options);
  net::HttpClient client("127.0.0.1", cluster.port());

  const auto accepted = client.post("/v1/jobs", dist_job_json(2, "dist-smoke"));
  ASSERT_EQ(accepted.status, 202) << accepted.body;
  const Json ack = Json::parse(accepted.body);
  EXPECT_EQ(ack.at("shard_world").as_uint(), 2u);
  const auto& shard_jobs = ack.at("shard_jobs").as_array();
  ASSERT_EQ(shard_jobs.size(), 2u);
  EXPECT_EQ(ack.at("job_id").as_string(), shard_jobs[0].as_string());

  // Each rank landed on a distinct worker and every rank reaches done
  // through the coordinator's proxied poll (the routing table remembers
  // every rank's cluster id, not just rank 0's).
  EXPECT_NE(shard_jobs[0].as_string()[1], shard_jobs[1].as_string()[1]);
  std::vector<Json> statuses;
  for (const auto& id : shard_jobs) {
    statuses.push_back(poll_until_terminal(client, id.as_string()));
    ASSERT_EQ(statuses.back().at("state").as_string(), "done") << statuses.back().dump();
  }

  // Lockstep: both ranks rendered the identical solution, and the dist
  // telemetry block names each rank's place in the group.
  const auto& x0 =
      statuses[0].at("result").at("solves").as_array()[0].at("report").at("x").as_array();
  const auto& x1 =
      statuses[1].at("result").at("solves").as_array()[0].at("report").at("x").as_array();
  ASSERT_EQ(x0.size(), x1.size());
  ASSERT_GT(x0.size(), 0u);
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_EQ(x0[i].as_number(), x1[i].as_number()) << "component " << i;
  }
  for (std::uint32_t r = 0; r < 2; ++r) {
    const Json& dist = statuses[r].at("result").at("dist");
    EXPECT_EQ(dist.at("shard_rank").as_uint(), r);
    EXPECT_EQ(dist.at("shard_world").as_uint(), 2u);
    EXPECT_GT(dist.at("exchange_rounds").as_uint(), 0u);
  }

  const auto routing = cluster.coordinator().routing_stats();
  EXPECT_EQ(routing.dist_submits, 1u);
  EXPECT_EQ(routing.submits_accepted, 2u);  // one per rank

  const std::string metrics = client.get("/v1/metrics").body;
  EXPECT_NE(metrics.find("mpqls_cluster_dist_submits_total 1"), std::string::npos);
  cluster.stop();
}

TEST(Cluster, DistSubmitValidatesWorldAndRefusesUndersizedClusters) {
  TestCluster cluster(small_cluster(2));
  net::HttpClient client("127.0.0.1", cluster.port());

  // Non-power-of-two world sizes are a client error, not a routing miss.
  const auto odd = client.post("/v1/jobs", dist_job_json(3, "dist-odd"));
  EXPECT_EQ(odd.status, 400) << odd.body;

  // A 4-member group cannot form on a 2-worker cluster: 503, and the
  // reject is counted (no rank was admitted anywhere).
  const auto wide = client.post("/v1/jobs", dist_job_json(4, "dist-wide"));
  EXPECT_EQ(wide.status, 503) << wide.body;
  EXPECT_NE(wide.body.find("shard group incomplete"), std::string::npos) << wide.body;

  const auto routing = cluster.coordinator().routing_stats();
  EXPECT_EQ(routing.dist_rejects, 1u);
  EXPECT_EQ(routing.submits_accepted, 0u);
  cluster.stop();
}

}  // namespace
}  // namespace mpqls::cluster
