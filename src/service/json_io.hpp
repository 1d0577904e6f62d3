// JSON (de)serialization for the service's job API. Requests can carry a
// dense matrix inline or name a scenario generator (poisson1d, poisson2d,
// tridiagonal, random) — the mixed workloads examples/service_server
// executes. Results serialize losslessly (solution vectors, residual
// history, per-solve telemetry and the full comm-event log), so traces can
// be archived and re-loaded.
#pragma once

#include "common/json.hpp"
#include "service/request.hpp"

namespace mpqls::service {

// --- results ---------------------------------------------------------------

Json to_json(const SolveResult& result);
SolveResult result_from_json(const Json& j);

// --- requests --------------------------------------------------------------

/// Serialize with the matrix and right-hand sides inline (dense).
Json to_json(const SolveRequest& request);

/// Build a matrix from a request's "matrix" object (any scenario listed
/// under request_from_json). Also the body PUT /v1/matrices accepts.
linalg::Matrix<double> matrix_from_json(const Json& m);

/// Build a request from JSON. The "matrix" object is either
///   {"scenario": "dense", "rows": [[...], ...]}
///   {"scenario": "poisson1d", "n": 16}
///   {"scenario": "poisson2d", "nx": 8, "ny": 8}
///   {"scenario": "tridiagonal", "n": 16}          (unscaled tridiag(-1,2,-1))
///   {"scenario": "random", "n": 16, "kappa": 10.0, "seed": 1}
/// or, for a matrix uploaded to the daemon's store beforehand, a top-level
///   "matrix_ref": "<16-char content hash>"
/// resolved through `resolve` (see MatrixResolver; the daemon passes a
/// store lookup that throws store::MatrixRefMiss on a cold ref).
/// "rhs" is either {"vectors": [[...], ...]},
/// {"kind": "random", "count": 4, "seed": 7}, or
/// {"kind": "point", "index": 3}. "options" mirrors QsvtIrOptions.
SolveRequest request_from_json(const Json& j, const MatrixResolver& resolve = {});

/// Parse a job file: {"jobs": [<request>, ...]}.
std::vector<SolveRequest> jobs_from_json(const Json& j);

// --- traces ----------------------------------------------------------------

/// Flat span-list rendering of a trace — the body of
/// GET /v1/jobs/{id}/trace and each /v1/debug/slow entry:
///   {"trace_id": "<32 hex>", "spans_dropped": N, "spans": [
///     {"id": 1, "parent": 0, "name": "run", "start_us": 12.5,
///      "duration_us": 830.1, "attrs": {"tier": "single", ...}},
///     ...]}
/// Parents reference span ids (0 = top level); clients build the tree.
/// Still-running spans carry "running": true and a live duration.
Json trace_to_json(const trace::Trace& trace);

}  // namespace mpqls::service
