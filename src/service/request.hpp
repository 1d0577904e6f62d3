// Typed job descriptions for the solver service: one request = one matrix
// plus any number of right-hand sides solved against the same prepared
// (and cached) QSVT context. Results carry the full per-RHS QsvtIrReport
// with its own CommLog, plus service-level telemetry: cache behaviour and
// wall-clock per phase.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "service/fingerprint.hpp"
#include "solver/qsvt_ir.hpp"

namespace mpqls::service {

/// Looks up a matrix by content hash (see store::MatrixStore). Returns
/// nullptr on a miss, or throws a caller-specific miss exception the
/// deserializers propagate unchanged (the daemon maps it to a 404).
using MatrixResolver =
    std::function<std::shared_ptr<const linalg::Matrix<double>>(std::uint64_t)>;

/// One rank's place in a distributed shard-group solve: the coordinator
/// fans a dist job out to W = 2^k workers, giving each the same group id
/// and peer list but its own rank. world == 1 (the default) means a
/// plain single-node job. Carried in the JSON body only — binary-frame
/// submits stay single-node (the coordinator rejects frame dist submits
/// with a 400 rather than re-encoding per rank).
struct ShardSpec {
  std::uint64_t group = 0;         ///< coordinator-minted shard-group id
  std::uint32_t rank = 0;          ///< this worker's rank, < world
  std::uint32_t world = 1;         ///< group size, a power of two
  std::vector<std::string> peers;  ///< "host:port" per rank, size == world

  bool distributed() const { return world > 1; }
};

struct SolveRequest {
  std::string id;                           ///< caller-chosen job label
  linalg::Matrix<double> A;                 ///< square system matrix (inline form)
  std::vector<linalg::Vector<double>> rhs;  ///< >= 1 right-hand sides
  solver::QsvtIrOptions options;            ///< eps, refinement + QSVT knobs
  ShardSpec shard;                          ///< distributed placement (default: single-node)

  /// Client-supplied trace id (zero = none): the body-level twin of the
  /// `x-mpqls-trace` header, carried by wire-v3 frames and the optional
  /// JSON "trace_id" field so a binary submit keeps its distributed
  /// trace identity without HTTP header plumbing. The runtime span sink
  /// travels separately, in `options.trace`.
  trace::TraceId trace_id{};

  /// By-reference form: the content hash (service::hash_matrix) of a
  /// matrix uploaded to the daemon's store. Nonzero means `A` is empty
  /// and the matrix travels as `shared_A` once resolved — a store entry
  /// shared with the cache instead of a per-job 128 MiB copy.
  std::uint64_t matrix_ref = 0;
  std::shared_ptr<const linalg::Matrix<double>> shared_A;

  /// The system matrix regardless of how it arrived.
  const linalg::Matrix<double>& matrix() const { return shared_A ? *shared_A : A; }
};

/// Outcome for one right-hand side of a request.
struct RhsResult {
  solver::QsvtIrReport report;  ///< includes this solve's own CommLog
  double solve_seconds = 0.0;   ///< wall clock of the refinement loop
};

struct SolveResult {
  std::string id;
  Fingerprint fp;
  bool cache_hit = false;         ///< context served from the cache
  double prepare_seconds = 0.0;   ///< time spent in get_or_prepare (~0 on a hit)
  double total_seconds = 0.0;     ///< whole-job wall clock
  std::vector<RhsResult> solves;  ///< one per request rhs, same order
  bool all_converged = false;
  /// Panel-execution telemetry (0/0 for noisy and matrix-function jobs):
  /// compiled-program panel sweeps and the RHS lanes they carried.
  std::uint64_t panels_executed = 0;
  std::uint64_t panel_lanes = 0;
  /// Distributed-execution telemetry, all zero for single-node jobs:
  /// this rank's shard placement and what the job's exchange plan cost.
  /// JSON-only (emitted when shard_world > 1); the binary result codec
  /// does not carry it because frame submits are single-node.
  std::uint32_t shard_rank = 0;
  std::uint32_t shard_world = 0;
  std::uint64_t dist_exchange_rounds = 0;
  std::uint64_t dist_bytes_moved = 0;
  std::uint64_t dist_plan_naive_rounds = 0;
  std::uint64_t dist_plan_scheduled_rounds = 0;
};

}  // namespace mpqls::service
