// The JSON layer: parser/writer fundamentals, lossless SolveResult round
// trips (doubles survive dump -> parse bitwise), and scenario-based
// request construction for the job API.
#include "service/json_io.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <sstream>
#include <string>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "service/solver_service.hpp"

namespace mpqls::service {
namespace {

TEST(Json, ParsesScalarsAndContainers) {
  const auto j = Json::parse(R"({"a": 1.5, "b": [true, false, null], "s": "x\ny", "n": -3e2})");
  EXPECT_DOUBLE_EQ(j.at("a").as_number(), 1.5);
  EXPECT_TRUE(j.at("b").as_array()[0].as_bool());
  EXPECT_FALSE(j.at("b").as_array()[1].as_bool());
  EXPECT_TRUE(j.at("b").as_array()[2].is_null());
  EXPECT_EQ(j.at("s").as_string(), "x\ny");
  EXPECT_DOUBLE_EQ(j.at("n").as_number(), -300.0);
}

TEST(Json, StringEscapesRoundTrip) {
  Json j = Json::object();
  j["s"] = std::string("quote\" slash\\ tab\t newline\n ctrl\x01 end");
  const auto parsed = Json::parse(j.dump());
  EXPECT_EQ(parsed.at("s").as_string(), j.at("s").as_string());
}

TEST(Json, UnicodeEscapeDecodesToUtf8) {
  const auto j = Json::parse(R"("éA")");
  EXPECT_EQ(j.as_string(), "\xC3\xA9"  "A");
}

TEST(Json, DoublesRoundTripBitwise) {
  const double values[] = {1.0 / 3.0, 1e-300, 1e300,  M_PI,
                           -0.0,      5e-324, 1.0 + 1e-15};
  for (double v : values) {
    Json j = Json::array();
    j.push_back(v);
    const auto back = Json::parse(j.dump()).as_array()[0].as_number();
    EXPECT_EQ(std::signbit(back), std::signbit(v));
    EXPECT_EQ(back, v) << "value " << v;
  }
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), JsonParseError);
  EXPECT_THROW(Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW(Json::parse("12 34"), JsonParseError);
  EXPECT_THROW(Json::parse(R"("\q")"), JsonParseError);
  EXPECT_THROW(Json::parse("nul"), JsonParseError);
  EXPECT_THROW(Json::parse(""), JsonParseError);
  EXPECT_THROW(Json::parse(R"({"a" 1})"), JsonParseError);
  EXPECT_THROW(Json::parse(R"("unterminated)"), JsonParseError);
  EXPECT_THROW(Json::parse(R"("\u12g4")"), JsonParseError);
  EXPECT_THROW(Json::parse("1.2.3"), JsonParseError);
}

// Every rejection carries the byte offset where the parser gave up — the
// daemon echoes it in 400 responses so clients can locate the defect.
TEST(Json, ParseErrorsCarryThePosition) {
  const auto position_of = [](std::string_view text) -> std::size_t {
    try {
      Json::parse(text);
    } catch (const JsonParseError& e) {
      EXPECT_NE(std::string(e.what()).find("at byte"), std::string::npos);
      return e.position();
    }
    ADD_FAILURE() << "no JsonParseError for: " << text;
    return static_cast<std::size_t>(-1);
  };

  // Trailing garbage: position points at the first extra character.
  EXPECT_EQ(position_of("{} x"), 3u);
  EXPECT_EQ(position_of("[1, 2] [3]"), 7u);
  // Malformed syntax: position points at (or just past) the defect.
  EXPECT_EQ(position_of(R"({"a": 1 "b": 2})"), 8u);  // missing comma
  EXPECT_EQ(position_of("[1, ]"), 4u);               // dangling comma
  EXPECT_EQ(position_of("12e"), 0u);                 // bad number (token start)
  EXPECT_EQ(position_of("{"), 1u);                   // truncated document
}

TEST(Json, NestingDepthIsCapped) {
  // One over the cap of 256 throws; exactly at the cap parses.
  const std::string deep_open(257, '[');
  EXPECT_THROW(Json::parse(deep_open), JsonParseError);

  std::string balanced(255, '[');
  balanced += "1";
  balanced.append(255, ']');
  EXPECT_NO_THROW(Json::parse(balanced));

  try {
    Json::parse(std::string(400, '['));
    FAIL() << "depth cap not enforced";
  } catch (const JsonParseError& e) {
    EXPECT_EQ(e.position(), 256u);  // the bracket that crossed the limit
  }
}

TEST(Json, PrettyAndCompactDumpsParseIdentically) {
  const auto j = Json::parse(R"({"a": [1, 2, {"b": "c"}], "d": {}})");
  EXPECT_EQ(Json::parse(j.dump(2)).dump(), j.dump());
}

TEST(JsonIo, SolveResultRoundTripsLosslessly) {
  Xoshiro256 rng(900);
  SolveRequest req;
  req.id = "roundtrip";
  req.A = linalg::random_with_cond(rng, 8, 10.0);
  req.rhs.push_back(linalg::random_unit_vector(rng, 8));
  req.rhs.push_back(linalg::random_unit_vector(rng, 8));
  req.options.eps = 1e-10;
  req.options.qsvt.eps_l = 1e-2;

  SolverService service({.cache_capacity = 2, .solve_threads = 2, .job_threads = 1});
  const auto result = service.solve(req);

  const auto text = to_json(result).dump(2);
  const auto back = result_from_json(Json::parse(text));
  // Two tiers: the retired half tier's keys are not rendered.
  EXPECT_NE(text.find("\"single_solves\""), std::string::npos);
  EXPECT_EQ(text.find("half_"), std::string::npos);

  EXPECT_EQ(back.id, result.id);
  EXPECT_EQ(back.fp, result.fp);
  EXPECT_EQ(back.cache_hit, result.cache_hit);
  EXPECT_EQ(back.prepare_seconds, result.prepare_seconds);
  EXPECT_EQ(back.total_seconds, result.total_seconds);
  EXPECT_EQ(back.all_converged, result.all_converged);
  ASSERT_EQ(back.solves.size(), result.solves.size());
  for (std::size_t k = 0; k < result.solves.size(); ++k) {
    const auto& want = result.solves[k].report;
    const auto& got = back.solves[k].report;
    EXPECT_EQ(back.solves[k].solve_seconds, result.solves[k].solve_seconds);
    EXPECT_EQ(got.converged, want.converged);
    EXPECT_EQ(got.iterations, want.iterations);
    EXPECT_EQ(got.kappa, want.kappa);
    EXPECT_EQ(got.eps_l_effective, want.eps_l_effective);
    EXPECT_EQ(got.poly_degree, want.poly_degree);
    EXPECT_EQ(got.poly_scale, want.poly_scale);
    EXPECT_EQ(got.theoretical_iteration_bound, want.theoretical_iteration_bound);
    EXPECT_EQ(got.total_be_calls, want.total_be_calls);
    EXPECT_EQ(got.tier_solves, want.tier_solves);
    EXPECT_EQ(got.tier_iterations, want.tier_iterations);
    EXPECT_EQ(got.precision_switches, want.precision_switches);
    EXPECT_EQ(got.dd128_verified, want.dd128_verified);
    EXPECT_EQ(got.dd128_final_residual, want.dd128_final_residual);
    ASSERT_EQ(got.x.size(), want.x.size());
    for (std::size_t i = 0; i < want.x.size(); ++i) EXPECT_EQ(got.x[i], want.x[i]);
    ASSERT_EQ(got.scaled_residuals.size(), want.scaled_residuals.size());
    for (std::size_t i = 0; i < want.scaled_residuals.size(); ++i) {
      EXPECT_EQ(got.scaled_residuals[i], want.scaled_residuals[i]);
    }
    ASSERT_EQ(got.solves.size(), want.solves.size());
    for (std::size_t i = 0; i < want.solves.size(); ++i) {
      EXPECT_EQ(got.solves[i].mu, want.solves[i].mu);
      EXPECT_EQ(got.solves[i].success_probability, want.solves[i].success_probability);
      EXPECT_EQ(got.solves[i].be_calls, want.solves[i].be_calls);
      EXPECT_EQ(got.solves[i].circuit_gates, want.solves[i].circuit_gates);
    }
    ASSERT_EQ(got.comm.events().size(), want.comm.events().size());
    for (std::size_t i = 0; i < want.comm.events().size(); ++i) {
      EXPECT_EQ(got.comm.events()[i].payload, want.comm.events()[i].payload);
      EXPECT_EQ(got.comm.events()[i].bytes, want.comm.events()[i].bytes);
      EXPECT_EQ(got.comm.events()[i].iteration, want.comm.events()[i].iteration);
      EXPECT_EQ(static_cast<int>(got.comm.events()[i].direction),
                static_cast<int>(want.comm.events()[i].direction));
    }
  }
}

TEST(JsonIo, RequestRoundTripsThroughDenseForm) {
  Xoshiro256 rng(901);
  SolveRequest req;
  req.id = "dense-rt";
  req.A = linalg::random_with_cond(rng, 4, 3.0);
  req.rhs.push_back(linalg::random_unit_vector(rng, 4));
  req.options.qsvt.backend = qsvt::Backend::kMatrixFunction;
  req.options.qsvt.eps_l = 5e-3;
  req.options.qsvt.shots = 4096;
  req.options.qsvt.qsp_options.tolerance = 1e-14;
  req.options.qsvt.qsp_options.enable_lbfgs = false;
  req.options.residual_precision = solver::ResidualPrecision::kDoubleDouble;

  const auto back = request_from_json(Json::parse(to_json(req).dump()));
  EXPECT_EQ(back.id, req.id);
  EXPECT_EQ(back.A, req.A);  // bitwise matrix equality
  ASSERT_EQ(back.rhs.size(), 1u);
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(back.rhs[0][i], req.rhs[0][i]);
  EXPECT_EQ(back.options.qsvt.backend, req.options.qsvt.backend);
  EXPECT_EQ(back.options.qsvt.eps_l, req.options.qsvt.eps_l);
  EXPECT_EQ(back.options.qsvt.shots, req.options.qsvt.shots);
  EXPECT_EQ(back.options.qsvt.qsp_options.tolerance, req.options.qsvt.qsp_options.tolerance);
  EXPECT_EQ(back.options.qsvt.qsp_options.enable_lbfgs,
            req.options.qsvt.qsp_options.enable_lbfgs);
  EXPECT_EQ(back.options.residual_precision, req.options.residual_precision);
  // The fingerprint must survive the round trip too — qsp knobs are hashed.
  EXPECT_EQ(hash_options(back.options.qsvt), hash_options(req.options.qsvt));
}

TEST(JsonIo, AdaptivePrecisionKnobsRoundTrip) {
  Xoshiro256 rng(902);
  SolveRequest req;
  req.id = "adaptive-rt";
  req.A = linalg::random_with_cond(rng, 4, 3.0);
  req.rhs.push_back(linalg::random_unit_vector(rng, 4));
  req.options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  req.options.escalation.stall_ratio = 0.25;
  req.options.escalation.single_floor = 2e-11;

  const auto text = to_json(req).dump(2);
  // The knob travels by name, not enum value.
  EXPECT_NE(text.find("\"precision\": \"adaptive\""), std::string::npos);
  const auto back = request_from_json(Json::parse(text));
  EXPECT_EQ(back.options.qsvt.precision, qsvt::QpuPrecision::kAdaptive);
  EXPECT_EQ(back.options.escalation.stall_ratio, req.options.escalation.stall_ratio);
  EXPECT_EQ(back.options.escalation.single_floor, req.options.escalation.single_floor);

  // The retired half tier is still admitted by name (it runs single).
  req.options.qsvt.precision = qsvt::QpuPrecision::kHalf;
  const auto half_back = request_from_json(Json::parse(to_json(req).dump()));
  EXPECT_EQ(half_back.options.qsvt.precision, qsvt::QpuPrecision::kHalf);

  // The retired half floor is an ignored key: it neither fails the parse
  // nor is written back.
  EXPECT_EQ(text.find("half_floor"), std::string::npos);
  const auto retired = request_from_json(Json::parse(R"({
    "id": "retired-floor",
    "matrix": {"scenario": "tridiagonal", "n": 4},
    "rhs": {"kind": "point", "index": 0},
    "options": {"qsvt": {"precision": "adaptive"},
                "escalation": {"half_floor": 0.5, "single_floor": 3e-12}}
  })"));
  EXPECT_EQ(retired.options.escalation.single_floor, 3e-12);

  // A request predating the escalation block keeps the defaults.
  const auto legacy = request_from_json(Json::parse(R"({
    "id": "legacy",
    "matrix": {"scenario": "tridiagonal", "n": 4},
    "rhs": {"kind": "point", "index": 0},
    "options": {"eps": 1e-9, "qsvt": {"precision": "adaptive"}}
  })"));
  const solver::EscalationPolicy defaults;
  EXPECT_EQ(legacy.options.escalation.stall_ratio, defaults.stall_ratio);
  EXPECT_EQ(legacy.options.escalation.single_floor, defaults.single_floor);
}

TEST(JsonIo, ScenarioGeneratorsMatchLibrary) {
  const auto poisson = request_from_json(Json::parse(R"({
    "id": "p1", "matrix": {"scenario": "poisson1d", "n": 8},
    "rhs": {"kind": "point", "index": 3}})"));
  EXPECT_EQ(poisson.A, linalg::poisson1d(8));
  ASSERT_EQ(poisson.rhs.size(), 1u);
  EXPECT_EQ(poisson.rhs[0][3], 1.0);

  const auto tridiag = request_from_json(Json::parse(R"({
    "id": "t1", "matrix": {"scenario": "tridiagonal", "n": 8},
    "rhs": {"kind": "random", "count": 3, "seed": 5}})"));
  EXPECT_EQ(tridiag.A, linalg::dirichlet_laplacian(8));
  EXPECT_EQ(tridiag.rhs.size(), 3u);

  const auto random = request_from_json(Json::parse(R"({
    "id": "r1", "matrix": {"scenario": "random", "n": 8, "kappa": 12.0, "seed": 9},
    "rhs": {"kind": "random", "count": 1}})"));
  Xoshiro256 rng(9);
  EXPECT_EQ(random.A, linalg::random_with_cond(rng, 8, 12.0));

  EXPECT_THROW(request_from_json(Json::parse(
                   R"({"matrix": {"scenario": "nope"}, "rhs": {"kind": "point", "index": 0}})")),
               contract_violation);
}

// Scenario sizes come from untrusted network bodies: a few bytes of JSON
// must not be able to demand an enormous dense allocation or an unbounded
// fan-out of right-hand sides.
TEST(JsonIo, RejectsOversizedScenarioRequests) {
  EXPECT_THROW(request_from_json(Json::parse(
                   R"({"matrix": {"scenario": "poisson1d", "n": 200000},
                       "rhs": {"kind": "point", "index": 0}})")),
               contract_violation);
  EXPECT_THROW(request_from_json(Json::parse(
                   R"({"matrix": {"scenario": "random", "n": 1000000, "kappa": 2.0},
                       "rhs": {"kind": "point", "index": 0}})")),
               contract_violation);
  EXPECT_THROW(request_from_json(Json::parse(
                   R"({"matrix": {"scenario": "poisson2d", "nx": 100000, "ny": 100000},
                       "rhs": {"kind": "point", "index": 0}})")),
               contract_violation);
  EXPECT_THROW(request_from_json(Json::parse(
                   R"({"matrix": {"scenario": "poisson1d", "n": 0},
                       "rhs": {"kind": "point", "index": 0}})")),
               contract_violation);
  EXPECT_THROW(request_from_json(Json::parse(
                   R"({"matrix": {"scenario": "poisson1d", "n": 8},
                       "rhs": {"kind": "random", "count": 1000000, "seed": 1}})")),
               contract_violation);
}

// Schema-drift tripwire for the checked-in example workload: every job in
// examples/jobs/mixed.json must survive parse -> typed request ->
// serialize -> parse -> serialize with identical dumps. If a field is
// renamed or dropped in json_io, this fails in CTest instead of at daemon
// runtime when a client submits the documented example.
TEST(JsonIo, MixedJobsFileRoundTripsExactly) {
  const std::string path = std::string(MPQLS_SOURCE_DIR) + "/examples/jobs/mixed.json";
  std::ifstream in(path);
  ASSERT_TRUE(in) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();

  const Json doc = Json::parse(buffer.str());
  const auto& jobs = doc.at("jobs").as_array();
  ASSERT_GE(jobs.size(), 8u);
  for (const auto& job_json : jobs) {
    const SolveRequest first = request_from_json(job_json);
    const Json dumped = to_json(first);            // normalizes to dense form
    const SolveRequest second = request_from_json(dumped);
    const Json dumped_again = to_json(second);
    EXPECT_EQ(dumped.dump(), dumped_again.dump()) << "job " << first.id;
    EXPECT_EQ(first.A, second.A);
    EXPECT_EQ(hash_options(first.options.qsvt), hash_options(second.options.qsvt));
  }
}

TEST(JsonIo, JobFileParsesAllJobs) {
  const auto jobs = jobs_from_json(Json::parse(R"({"jobs": [
    {"id": "a", "matrix": {"scenario": "poisson1d", "n": 4},
     "rhs": {"kind": "point", "index": 0}},
    {"id": "b", "matrix": {"scenario": "random", "n": 4, "kappa": 5.0, "seed": 2},
     "rhs": {"kind": "random", "count": 2, "seed": 3},
     "options": {"eps": 1e-8, "qsvt": {"backend": "matrix", "eps_l": 0.005}}}
  ]})"));
  ASSERT_EQ(jobs.size(), 2u);
  EXPECT_EQ(jobs[0].id, "a");
  EXPECT_EQ(jobs[1].options.eps, 1e-8);
  EXPECT_EQ(jobs[1].options.qsvt.backend, qsvt::Backend::kMatrixFunction);
  EXPECT_EQ(jobs[1].options.qsvt.eps_l, 0.005);
}

}  // namespace
}  // namespace mpqls::service
