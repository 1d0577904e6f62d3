// perf_e2e workloads and their seeded inputs. Every matrix and right-hand
// side is generated here from the run seed; the daemon only ever receives
// explicit values (never a "scenario" generator), so what it solves is
// exactly what the bench verifies against.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "service/json_io.hpp"
#include "wire/codec.hpp"

namespace mpqls::bench::e2e {

/// How a job body reaches the front door.
enum class Encoding {
  kFrameByRef,  ///< binary frame naming an uploaded matrix
  kJsonByRef,   ///< JSON naming an uploaded matrix
  kJsonInline,  ///< JSON carrying the dense matrix
};

struct Workload {
  std::string_view name;
  std::size_t n;
  double kappa;
  std::size_t rhs_per_job;
  bool adaptive;  ///< "precision": "adaptive"; otherwise fixed double
  Encoding encoding;
  std::size_t clients;       ///< closed-loop callers, one job in flight each
  std::size_t dist_workers;  ///< 0 = one daemon; else a shard group this wide
  bool fresh_matrix;         ///< every job brings a new matrix (cache misses)
};

/// Refinement target and QSVT accuracy shared by every workload.
inline constexpr double kEps = 1e-11;
inline constexpr double kEpsL = 5e-2;

// Why these four (see README.md for the long form):
//  - warm_batch: the production path — 16-lane panel replay at the half and
//    single tiers plus the refinement loop, prepare bypassed by the cache,
//    two panels in flight at once (nested OpenMP under the solve pool).
//  - warm_single: per-job front-door and service cost around the scalar
//    double replay; bypasses the panel path and the cheap tiers.
//  - cold_prepare: every job misses the cache, so prepare (SVD ... specialize)
//    dominates and the 8 resident contexts set peak memory.
//  - shard_group: the only workload that runs cluster fan-out, dist rank
//    replay and /v1/shard/exchange traffic.
inline constexpr Workload kWorkloads[] = {
    {"warm_batch", 128, 30.0, 16, true, Encoding::kFrameByRef, 2, 0, false},
    {"warm_single", 64, 20.0, 1, false, Encoding::kJsonByRef, 2, 0, false},
    {"cold_prepare", 64, 20.0, 1, true, Encoding::kJsonInline, 2, 0, true},
    {"shard_group", 64, 20.0, 8, true, Encoding::kJsonByRef, 1, 2, false},
};

inline const Workload* find_workload(std::string_view name) {
  for (const auto& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

/// Job index base of the traced segment: its jobs draw inputs from a stream
/// disjoint from the plain segment's, so both segments start from inputs
/// that depend on the seed alone.
inline constexpr std::uint64_t kTracedIndexBase = std::uint64_t{1} << 20;

/// Generator for one input stream of a run. Stream 0 is the shared matrix;
/// jobs use job_stream(). Seed and key are mixed so neighbouring seeds or
/// keys never share a sequence.
inline Xoshiro256 stream_rng(std::uint64_t seed, std::uint64_t key) {
  return Xoshiro256(mix64(mix64(seed) ^ (key + 0x9E3779B97F4A7C15ull)));
}

inline std::uint64_t job_stream(std::size_t client, std::uint64_t index) {
  return (static_cast<std::uint64_t>(client) + 1) << 32 | index;
}

inline std::shared_ptr<const linalg::Matrix<double>> shared_matrix(const Workload& w,
                                                                  std::uint64_t seed) {
  Xoshiro256 rng = stream_rng(seed, 0);
  return std::make_shared<const linalg::Matrix<double>>(
      linalg::random_with_cond(rng, w.n, w.kappa));
}

inline solver::QsvtIrOptions job_options(const Workload& w) {
  solver::QsvtIrOptions o;
  o.eps = kEps;
  o.qsvt.eps_l = kEpsL;
  o.qsvt.precision = w.adaptive ? qsvt::QpuPrecision::kAdaptive : qsvt::QpuPrecision::kDouble;
  return o;
}

/// One job: the system the bench will verify against and the body it sends.
struct JobInput {
  std::shared_ptr<const linalg::Matrix<double>> A;
  std::vector<linalg::Vector<double>> rhs;
  std::string body;
  std::string content_type;
};

/// Inputs of job `index` of `client`. `shared` is the uploaded matrix (and
/// `matrix_ref` its store ref) for by-ref workloads; fresh-matrix workloads
/// draw a new matrix from the job's own stream.
inline JobInput make_job(const Workload& w, std::uint64_t seed, std::size_t client,
                         std::uint64_t index,
                         const std::shared_ptr<const linalg::Matrix<double>>& shared,
                         std::uint64_t matrix_ref) {
  Xoshiro256 rng = stream_rng(seed, job_stream(client, index));
  JobInput in;
  in.A = w.fresh_matrix ? std::make_shared<const linalg::Matrix<double>>(
                              linalg::random_with_cond(rng, w.n, w.kappa))
                        : shared;
  for (std::size_t k = 0; k < w.rhs_per_job; ++k) {
    in.rhs.push_back(linalg::random_unit_vector(rng, w.n));
  }

  service::SolveRequest req;
  req.id = std::string(w.name) + "-c" + std::to_string(client) + "-j" + std::to_string(index);
  req.rhs = in.rhs;
  req.options = job_options(w);
  switch (w.encoding) {
    case Encoding::kFrameByRef:
      req.matrix_ref = matrix_ref;
      in.body = wire::encode_request(req);
      in.content_type = wire::kContentType;
      break;
    case Encoding::kJsonByRef:
    case Encoding::kJsonInline: {
      if (w.encoding == Encoding::kJsonByRef) {
        req.matrix_ref = matrix_ref;
      } else {
        req.A = *in.A;
      }
      Json j = service::to_json(req);
      if (w.dist_workers != 0) j["dist_workers"] = static_cast<std::uint64_t>(w.dist_workers);
      in.body = j.dump();
      in.content_type = "application/json";
      break;
    }
  }
  return in;
}

}  // namespace mpqls::bench::e2e
