// Distributed shard-group solves across REAL daemons: two (and four)
// SolverDaemon processes-worth of HTTP stacks on loopback, each rank's
// job submitted as JSON with a "shard" block naming the group and the
// peer endpoints, amplitudes exchanged through POST /v1/shard/exchange
// kShardExchange frames. Ranks must render identical solutions, the
// dist telemetry must surface in the result JSON, /v1/healthz and
// /v1/metrics, and the memory-wall contract must hold over HTTP: a
// qubit-capped daemon answers 413 for a too-wide single-node job yet
// completes the same job as a member of a 4-worker shard group, and its
// width estimate never wedges the event loop on absurd dimensions. Ranks
// with different body caps size their exchange frames for the smallest;
// a group whose cap is below one exchange frame fails fast and
// symmetrically: every rank sees its peer's 413, well inside the
// exchange await deadline, and no shard group is left registered.
#include "net/daemon.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hpp"
#include "net/http_client.hpp"
#include "wire/codec.hpp"
#include "wire/frame.hpp"

namespace mpqls::net {
namespace {

using namespace std::chrono_literals;

DaemonOptions worker_options(std::size_t qubit_cap = 0) {
  DaemonOptions o;
  o.port = 0;  // ephemeral
  o.service.cache_capacity = 4;
  o.service.solve_threads = 1;
  o.service.job_threads = 2;
  o.service.panel_width = 1;
  o.service.max_statevector_qubits = qubit_cap;
  return o;
}

/// The rank-r job body for a W-member group over `ports`.
std::string shard_job(std::size_t n, std::uint32_t rank,
                      const std::vector<std::uint16_t>& ports, std::uint64_t rhs_count = 1) {
  Json shard = Json::object();
  shard["group"] = std::string("00000000deadbeef");
  shard["rank"] = static_cast<std::uint64_t>(rank);
  shard["world"] = static_cast<std::uint64_t>(ports.size());
  Json peers = Json::array();
  for (const auto port : ports) peers.push_back("127.0.0.1:" + std::to_string(port));
  shard["peers"] = std::move(peers);

  Json j = Json::object();
  j["id"] = "dist-rank-" + std::to_string(rank);
  Json matrix = Json::object();
  matrix["scenario"] = std::string("random");
  matrix["n"] = static_cast<std::uint64_t>(n);
  matrix["kappa"] = 10.0;
  matrix["seed"] = static_cast<std::uint64_t>(77);
  j["matrix"] = std::move(matrix);
  Json rhs = Json::object();
  rhs["kind"] = std::string("random");
  rhs["count"] = rhs_count;
  rhs["seed"] = static_cast<std::uint64_t>(78);
  j["rhs"] = std::move(rhs);
  Json qsvt = Json::object();
  qsvt["backend"] = std::string("gate");
  qsvt["eps_l"] = 1e-2;
  Json options = Json::object();
  options["eps"] = 1e-10;
  options["qsvt"] = std::move(qsvt);
  j["options"] = std::move(options);
  j["shard"] = std::move(shard);
  return j.dump();
}

Json poll_done(HttpClient& client, const std::string& job_id,
               std::chrono::seconds timeout = 120s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  for (;;) {
    const auto response = client.get("/v1/jobs/" + job_id);
    EXPECT_EQ(response.status, 200) << response.body;
    Json status = Json::parse(response.body);
    const std::string state = status.at("state").as_string();
    if (state != "queued" && state != "running") return status;
    if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "timed out polling " << job_id;
      return status;
    }
    std::this_thread::sleep_for(5ms);
  }
}

/// Submit rank r's job to daemon r for every rank, then poll all to done.
std::vector<Json> run_shard_group(std::vector<std::unique_ptr<SolverDaemon>>& daemons,
                                  std::size_t n) {
  std::vector<std::uint16_t> ports;
  for (const auto& d : daemons) ports.push_back(d->port());
  const std::uint32_t world = static_cast<std::uint32_t>(daemons.size());

  std::vector<std::string> ids(world);
  for (std::uint32_t r = 0; r < world; ++r) {
    HttpClient client("127.0.0.1", ports[r]);
    const auto response = client.post("/v1/jobs", shard_job(n, r, ports));
    EXPECT_EQ(response.status, 202) << response.body;
    ids[r] = Json::parse(response.body).at("job_id").as_string();
  }
  std::vector<Json> statuses(world);
  for (std::uint32_t r = 0; r < world; ++r) {
    HttpClient client("127.0.0.1", ports[r]);
    statuses[r] = poll_done(client, ids[r]);
    EXPECT_EQ(statuses[r].at("state").as_string(), "done") << statuses[r].dump();
  }
  return statuses;
}

TEST(DistDaemon, TwoWorkerGroupSolvesOverLoopbackHttp) {
  std::vector<std::unique_ptr<SolverDaemon>> daemons;
  for (int i = 0; i < 2; ++i) {
    daemons.push_back(std::make_unique<SolverDaemon>(worker_options()));
    daemons.back()->start();
  }
  const auto statuses = run_shard_group(daemons, 8);

  // Both ranks rendered the identical solution (lockstep double path).
  const auto& x0 =
      statuses[0].at("result").at("solves").as_array()[0].at("report").at("x").as_array();
  const auto& x1 =
      statuses[1].at("result").at("solves").as_array()[0].at("report").at("x").as_array();
  ASSERT_EQ(x0.size(), x1.size());
  ASSERT_GT(x0.size(), 0u);
  for (std::size_t i = 0; i < x0.size(); ++i) {
    EXPECT_EQ(x0[i].as_number(), x1[i].as_number()) << "component " << i;
  }

  // The result JSON carries the dist telemetry block per rank.
  for (std::uint32_t r = 0; r < 2; ++r) {
    const Json& dist = statuses[r].at("result").at("dist");
    EXPECT_EQ(dist.at("shard_rank").as_uint(), r);
    EXPECT_EQ(dist.at("shard_world").as_uint(), 2u);
    EXPECT_GT(dist.at("exchange_rounds").as_uint(), 0u);
    EXPECT_GT(dist.at("bytes_moved").as_uint(), 0u);
    EXPECT_LE(dist.at("plan_scheduled_rounds").as_uint(),
              dist.at("plan_naive_rounds").as_uint());
  }

  // healthz reports the dist posture; the finished group is unregistered.
  HttpClient client("127.0.0.1", daemons[0]->port());
  const Json health = Json::parse(client.get("/v1/healthz").body);
  ASSERT_TRUE(health.contains("dist"));
  EXPECT_EQ(health.at("dist").at("max_statevector_qubits").as_uint(), 0u);
  EXPECT_EQ(health.at("dist").at("active_groups").as_array().size(), 0u);

  // And the mpqls_dist_* series moved on both ranks.
  for (const auto& daemon : daemons) {
    const std::string text = daemon->metrics_text();
    EXPECT_NE(text.find("mpqls_dist_jobs_total 1"), std::string::npos) << text;
    EXPECT_EQ(text.find("mpqls_dist_exchange_rounds_total 0\n"), std::string::npos);
  }
  for (auto& daemon : daemons) daemon->drain(5000ms);
}

// n = 16 embeds as 7 circuit qubits, so a W = 2 shard holds 2^6 amplitudes
// per lane: a one-lane exchange frame carries 64 complex doubles = 1 KiB
// of payload plus its envelope.
constexpr std::size_t kOneLaneFrameBody = 1024;

TEST(DistDaemon, RanksAgreeOnTheSmallestBodyCap) {
  // Rank 0 accepts one-lane frames but not two-lane ones; rank 1 runs at
  // the default cap. The group sizes its panels for rank 0, so the 2-RHS
  // job completes in one-lane sweeps on both ranks.
  constexpr std::size_t kBodyCap = 1536;
  std::vector<std::unique_ptr<SolverDaemon>> daemons;
  for (int i = 0; i < 2; ++i) {
    auto options = worker_options();
    if (i == 0) options.limits.max_body_bytes = kBodyCap;
    daemons.push_back(std::make_unique<SolverDaemon>(options));
    daemons.back()->start();
  }
  const std::vector<std::uint16_t> ports = {daemons[0]->port(), daemons[1]->port()};

  std::vector<std::string> ids(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const std::string body = shard_job(16, r, ports, /*rhs_count=*/2);
    ASSERT_LT(body.size(), kBodyCap);
    HttpClient client("127.0.0.1", ports[r]);
    const auto response = client.post("/v1/jobs", body);
    ASSERT_EQ(response.status, 202) << response.body;
    ids[r] = Json::parse(response.body).at("job_id").as_string();
  }
  std::vector<Json> results(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    HttpClient client("127.0.0.1", ports[r]);
    const Json status = poll_done(client, ids[r], 60s);
    ASSERT_EQ(status.at("state").as_string(), "done") << status.dump();
    results[r] = status.at("result");
    // Every sweep carried one lane.
    EXPECT_GT(results[r].at("panels_executed").as_uint(), 0u) << "rank " << r;
    EXPECT_EQ(results[r].at("panels_executed").as_uint(),
              results[r].at("panel_lanes").as_uint())
        << "rank " << r;
  }
  for (std::size_t l = 0; l < 2; ++l) {
    const auto& x0 = results[0].at("solves").as_array()[l].at("report").at("x").as_array();
    const auto& x1 = results[1].at("solves").as_array()[l].at("report").at("x").as_array();
    ASSERT_EQ(x0.size(), x1.size());
    for (std::size_t i = 0; i < x0.size(); ++i) {
      EXPECT_EQ(x0[i].as_number(), x1[i].as_number()) << "rhs " << l << " component " << i;
    }
  }
  for (auto& daemon : daemons) daemon->drain(5000ms);
}

TEST(DistDaemon, OversizeExchangeFramesFailFastOnEveryRank) {
  // A body cap of exactly one frame's payload still admits the job itself
  // but refuses every exchange frame, even at one lane.
  constexpr std::size_t kBodyCap = kOneLaneFrameBody;
  std::vector<std::unique_ptr<SolverDaemon>> daemons;
  for (int i = 0; i < 2; ++i) {
    auto options = worker_options();
    options.limits.max_body_bytes = kBodyCap;
    daemons.push_back(std::make_unique<SolverDaemon>(options));
    daemons.back()->start();
  }
  const std::vector<std::uint16_t> ports = {daemons[0]->port(), daemons[1]->port()};

  const auto started = std::chrono::steady_clock::now();
  std::vector<std::string> ids(2);
  for (std::uint32_t r = 0; r < 2; ++r) {
    const std::string body = shard_job(16, r, ports);
    ASSERT_LT(body.size(), kBodyCap);
    HttpClient client("127.0.0.1", ports[r]);
    const auto response = client.post("/v1/jobs", body);
    ASSERT_EQ(response.status, 202) << response.body;
    ids[r] = Json::parse(response.body).at("job_id").as_string();
  }
  for (std::uint32_t r = 0; r < 2; ++r) {
    HttpClient client("127.0.0.1", ports[r]);
    // Far inside the 60 s exchange await: neither rank may sit waiting
    // for a frame its peer could never deliver.
    const Json status = poll_done(client, ids[r], 20s);
    EXPECT_EQ(status.at("state").as_string(), "failed") << status.dump();
    const std::string error = status.at("error").as_string();
    EXPECT_NE(error.find("413"), std::string::npos) << "rank " << r << ": " << error;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - started, 20s);

  for (std::uint32_t r = 0; r < 2; ++r) {
    HttpClient client("127.0.0.1", ports[r]);
    const Json health = Json::parse(client.get("/v1/healthz").body);
    EXPECT_EQ(health.at("dist").at("active_groups").as_array().size(), 0u) << "rank " << r;
  }
  for (auto& daemon : daemons) daemon->drain(5000ms);
}

TEST(DistDaemon, QubitCapAnswers413UntilTheGroupIsLargeEnough) {
  // Four daemons capped at 5 local qubits. The n = 16 job embeds as 7
  // circuit qubits: a single-node submit must die at admission with 413,
  // while the same job sharded over W = 4 (7 - 2 = 5 local qubits per
  // rank) completes end to end.
  std::vector<std::unique_ptr<SolverDaemon>> daemons;
  for (int i = 0; i < 4; ++i) {
    daemons.push_back(std::make_unique<SolverDaemon>(worker_options(/*qubit_cap=*/5)));
    daemons.back()->start();
  }

  {
    // The same job WITHOUT a shard block: a single-node submit.
    Json body = Json::parse(shard_job(16, 0, {daemons[0]->port(), daemons[0]->port()}));
    body.as_object().erase("shard");
    HttpClient client("127.0.0.1", daemons[0]->port());
    const auto single = client.post("/v1/jobs", body.dump());
    EXPECT_EQ(single.status, 413) << single.body;
    const Json err = Json::parse(single.body);
    EXPECT_EQ(err.at("estimated_qubits").as_uint(), 7u);
    EXPECT_EQ(err.at("local_qubits").as_uint(), 7u);
    EXPECT_EQ(err.at("max_statevector_qubits").as_uint(), 5u);
  }

  const auto statuses = run_shard_group(daemons, 16);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_TRUE(statuses[r].at("result").at("all_converged").as_bool()) << "rank " << r;
    EXPECT_EQ(statuses[r].at("result").at("dist").at("shard_world").as_uint(), 4u);
  }
  for (auto& daemon : daemons) daemon->drain(5000ms);
}

TEST(DistDaemon, QubitCapAdmissionSurvivesOverflowingDimensions) {
  // The admission-time width estimate must not loop on dimensions near
  // 2^64 (a bare "n", or an nx * ny product that overflows): both jobs
  // get their admission answer inside a short read deadline, fail on
  // materialization with the dimension-cap message, and the event loop
  // keeps answering.
  SolverDaemon daemon(worker_options(/*qubit_cap=*/5));
  daemon.start();
  Deadlines deadlines;
  deadlines.read = 2000ms;
  HttpClient client("127.0.0.1", daemon.port(), deadlines);

  const char* const kBodies[] = {
      R"({"id": "huge-n",
          "matrix": {"scenario": "random", "n": 18446744073709549568, "kappa": 10, "seed": 1},
          "rhs": {"kind": "random", "count": 1, "seed": 2}})",
      R"({"id": "huge-grid",
          "matrix": {"scenario": "poisson2d", "nx": 4294967295, "ny": 4294967295},
          "rhs": {"kind": "random", "count": 1, "seed": 2}})",
  };
  for (const char* body : kBodies) {
    HttpClient::Response admitted;
    ASSERT_NO_THROW(admitted = client.post("/v1/jobs", body)) << "no admission answer";
    ASSERT_EQ(admitted.status, 202) << admitted.body;
    const auto status =
        poll_done(client, Json::parse(admitted.body).at("job_id").as_string(), 10s);
    EXPECT_EQ(status.at("state").as_string(), "failed") << status.dump();
    EXPECT_NE(status.at("error").as_string().find("dimension"), std::string::npos)
        << status.dump();
  }
  EXPECT_EQ(client.get("/v1/healthz").status, 200);
  daemon.drain(5000ms);
}

TEST(DistDaemon, ShardExchangeRouteValidatesItsInput) {
  SolverDaemon daemon(worker_options());
  daemon.start();
  HttpClient client("127.0.0.1", daemon.port());

  // JSON bodies are refused — the route is frame-only.
  const auto not_frame = client.post("/v1/shard/exchange", "{}", "application/json");
  EXPECT_EQ(not_frame.status, 415);

  // A malformed frame dies with the wire error, not a deposit.
  const auto garbage =
      client.post("/v1/shard/exchange", "not-a-frame", wire::kContentType);
  EXPECT_EQ(garbage.status, 400);

  // A well-formed frame is parked for the (future) awaiting job: 200.
  const std::string frame = wire::encode_shard_exchange(0x42, 1, 0, "payload-bytes");
  const auto ok = client.post("/v1/shard/exchange", frame, wire::kContentType);
  EXPECT_EQ(ok.status, 200) << ok.body;
  EXPECT_TRUE(Json::parse(ok.body).at("ok").as_bool());

  daemon.drain(5000ms);
}

}  // namespace
}  // namespace mpqls::net
