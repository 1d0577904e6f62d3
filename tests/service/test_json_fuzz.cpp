// Seeded mutation fuzz of the JSON job path. Every job in
// examples/jobs/mixed.json is mutated — bit flips, truncations, splices
// with the other jobs, and every numeric field set in turn to a boundary
// value — and each body goes through Json::parse and
// service::request_from_json, exactly what the daemon's job worker runs on
// an untrusted POST body. A body must either build a request or be
// refused with JsonParseError / contract_violation: any other exception
// fails the test (a crash or sanitizer report fails the binary). Fixed
// seeds make every run feed the same bodies.
#include "service/json_io.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"

namespace mpqls::service {
namespace {

/// Every job of the example file, as the compact text a client would POST.
std::vector<std::string> seed_bodies() {
  const std::string path = std::string(MPQLS_SOURCE_DIR) + "/examples/jobs/mixed.json";
  std::ifstream in(path);
  EXPECT_TRUE(in) << "missing " << path;
  std::stringstream buffer;
  buffer << in.rdbuf();
  const Json doc = Json::parse(buffer.str());
  std::vector<std::string> bodies;
  for (const auto& job : doc.at("jobs").as_array()) {
    bodies.push_back(job.dump());
  }
  return bodies;
}

/// How many bodies built a request and how many were refused cleanly.
struct Tally {
  std::size_t accepted = 0;
  std::size_t refused = 0;

  void feed(const std::string& body) {
    try {
      request_from_json(Json::parse(body));
      ++accepted;
    } catch (const JsonParseError&) {
      ++refused;
    } catch (const contract_violation&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception \"" << e.what() << "\" on body: " << body;
    } catch (...) {
      ADD_FAILURE() << "non-standard exception on body: " << body;
    }
  }
};

/// Every number in `j`, depth first.
void collect_numbers(Json& j, std::vector<Json*>& out) {
  if (j.is_number()) {
    out.push_back(&j);
  } else if (j.is_array()) {
    for (auto& v : j.as_array()) collect_numbers(v, out);
  } else if (j.is_object()) {
    for (auto& [key, v] : j.as_object()) collect_numbers(v, out);
  }
}

TEST(JsonFuzz, MutatedJobBodiesBuildOrRefuseCleanly) {
  const auto bodies = seed_bodies();
  ASSERT_GE(bodies.size(), 8u);
  Xoshiro256 rng(0x5EED'F022ull);
  const Timer timer;

  Tally flips;
  for (const auto& body : bodies) {
    for (int m = 0; m < 256; ++m) {
      std::string mutant = body;
      const auto count = 1 + rng.uniform_index(4);
      for (std::uint64_t k = 0; k < count; ++k) {
        mutant[rng.uniform_index(mutant.size())] ^=
            static_cast<char>(1u << rng.uniform_index(8));
      }
      flips.feed(mutant);
    }
  }

  Tally truncations;
  for (const auto& body : bodies) {
    for (std::size_t len = 0; len < body.size(); ++len) truncations.feed(body.substr(0, len));
  }

  Tally splices;
  for (const auto& body : bodies) {
    for (int m = 0; m < 128; ++m) {
      const std::string& other = bodies[rng.uniform_index(bodies.size())];
      splices.feed(body.substr(0, rng.uniform_index(body.size() + 1)) +
                   other.substr(rng.uniform_index(other.size() + 1)));
    }
  }

  // Boundary values for every numeric field in turn: zero, negative,
  // the largest exact double integer, the largest double below 2^64
  // (which Json::as_uint accepts) and a finite value no cap admits.
  const double kExtremes[] = {0.0, -1.0, 0x1p53, 1.8446744073709549568e19, 1e308};
  Tally extremes;
  for (const auto& body : bodies) {
    Json job = Json::parse(body);
    std::vector<Json*> numbers;
    collect_numbers(job, numbers);
    ASSERT_FALSE(numbers.empty());
    for (Json* number : numbers) {
      const Json original = *number;
      for (const double value : kExtremes) {
        *number = value;
        extremes.feed(job.dump());
      }
      *number = original;
    }
  }

  const double seconds = timer.seconds();
  EXPECT_LT(seconds, 2.0);
  // Every pass must exercise both outcomes, or it tests nothing.
  for (const Tally* t : {&flips, &splices, &extremes}) {
    EXPECT_GT(t->accepted, 0u);
    EXPECT_GT(t->refused, 0u);
  }
  // A strict prefix of a JSON object never parses.
  EXPECT_EQ(truncations.accepted, 0u);
  EXPECT_GT(truncations.refused, 0u);
  std::printf("fuzz: flips %zu/%zu, truncations %zu/%zu, splices %zu/%zu, extremes %zu/%zu "
              "(accepted/refused) in %.3f s\n",
              flips.accepted, flips.refused, truncations.accepted, truncations.refused,
              splices.accepted, splices.refused, extremes.accepted, extremes.refused, seconds);
}

}  // namespace
}  // namespace mpqls::service
