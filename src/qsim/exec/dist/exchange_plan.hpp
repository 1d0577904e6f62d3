// Compiles a FusedIr into a distributed replay plan for W = 2^k shards.
//
// Qubits split at m = n - k: qubits [0, m) are *local* (both halves of any
// such gate pair live in the same shard), qubits [m, n) are *partition*
// qubits (their bit value selects the owning rank). An op classifies as:
//
//  * local     — no partition-qubit targets. Partition-qubit *controls*
//                cost nothing: each rank evaluates them against its own
//                rank bits once at plan time (the op drops out entirely on
//                ranks where they fail). Diagonal ops are local even with
//                partition-qubit targets — each rank slices the payload
//                entries its rank bits select.
//  * exchange  — a non-diagonal op with h >= 1 partition-qubit targets.
//                The executor runs it on a widened 2^(m+h) register
//                assembled from the 2^h partner shards (h pairwise
//                butterfly rounds), with the partition targets remapped to
//                qubits m..m+h-1, through the same PanelExecutor call local
//                runs use. Costs h exchange rounds and (2^h - 1) shard
//                volumes of traffic per sweep, whatever the lane count.
//
// The scheduling pass then shrinks the exchange count without perturbing
// per-amplitude *values*:
//
//  1. Exact-diagonal demotion: kApply1q/kDense ops with partition-qubit
//     targets whose off-diagonal entries are exact zeros (a structural
//     check — fusion keeps exact zeros exact) become kDiagonal, turning
//     would-be exchanges into payload slicing.
//  2. X-conjugation elimination: an exchange op that is an exact
//     (controlled) Pauli-X, separated from an identical closing X only by
//     diagonal-kind ops, is cancelled against it; each diagonal D in the
//     sandwich is rewritten to X·D·X — a diagonal over the union qubit
//     set whose entries are D's entries at the X-permuted index, so every
//     amplitude sees the identical multiplier sequence. This is the QSVT
//     phase-gadget shape (CPiX · Rz · CRz · CPiX) when compiled without
//     fusion, and the controlled-X conjugations the gate-level
//     tridiagonal and LCU encodings keep after default fusion: 2
//     exchange rounds per sandwich collapse to 0, and the local runs
//     between them collapse into one.
//
// Bitwise parity: replaying a plan on B-lane shard panels reproduces a
// single-node B-lane panel replay *bit for bit* whenever no op changed
// kernel class (stats.demoted_diagonal == 0 and conjugated_ops == 0):
// every op runs through the identical kernel instantiation on identical
// values. That covers the dense-embedding production path. When a
// rewrite fires, the multiplier values are copied exactly but route
// through the diagonal kernel instead of the 1q/dense kernel, whose FMA
// contraction may differ in the last ulp.
//
// `naive_rounds` counts the rounds a classification-blind schedule pays
// (one pairwise round per partition-qubit reference of every op, controls
// included); `scheduled_rounds` is what the plan actually executes. The
// pass asserts nothing itself — tests and bench/perf_dist_scaling compare
// them, and the classify-only plan ({.schedule = false}), against it.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec::dist {

class DistPlanError : public std::runtime_error {
 public:
  explicit DistPlanError(const std::string& what) : std::runtime_error("dist plan: " + what) {}
};

struct ScheduleStats {
  /// Pairwise exchange rounds of a classification-blind schedule: one per
  /// partition-qubit reference (target or control) of every op.
  std::uint64_t naive_rounds = 0;
  /// Rounds the scheduled plan executes (h per exchange op with h
  /// partition-qubit targets).
  std::uint64_t scheduled_rounds = 0;
  std::uint64_t demoted_diagonal = 0;      ///< ops rewritten by pass 1
  std::uint64_t eliminated_exchanges = 0;  ///< X ops cancelled by pass 2
  std::uint64_t conjugated_ops = 0;        ///< sandwich ops rewritten by pass 2
};

struct PlanOptions {
  /// Run the exchange-minimizing passes; false keeps the naive
  /// classification (the baseline the round counts are compared against —
  /// the ops still execute correctly, just with more exchanges).
  bool schedule = true;
};

/// One scheduled step, in full-register coordinates. `op` shares its
/// payload with the IR op it came from unless a pass rewrote it.
struct PlanOp {
  bool exchange = false;
  /// Exchange ops: the partition-qubit targets, ascending.
  std::vector<std::uint32_t> high_targets;
  FusedOp op;
};

struct ExchangePlan {
  std::uint32_t num_qubits = 0;
  std::uint32_t local_qubits = 0;
  std::uint32_t world_log2 = 0;
  std::vector<PlanOp> ops;
  ScheduleStats stats;
};

/// Classify + schedule `ir` for W = 2^world_log2 shards. world_log2 must
/// be >= 1 and < ir.num_qubits.
ExchangePlan build_exchange_plan(const FusedIr& ir, std::uint32_t world_log2,
                                 const PlanOptions& options = {});

/// One step of a rank's program: a run of local ops over the m local
/// qubits, then at most one exchange op on the widened m+h register.
template <typename T>
struct RankStep {
  Program<T> local;
  bool has_exchange = false;
  /// False when the exchange op's non-target partition-qubit controls fail
  /// for this rank's shard group — every rank of the 2^h partner group
  /// agrees (they share those bits), so the whole step is skipped: no
  /// traffic.
  bool fires = true;
  std::vector<std::uint32_t> peer_bits;  ///< rank-bit index per partition target
  Program<T> wide;                       ///< the single exchange op
};

template <typename T>
struct RankProgram {
  std::uint32_t num_qubits = 0;
  std::uint32_t local_qubits = 0;
  std::uint32_t world_log2 = 0;
  std::uint32_t rank = 0;
  std::vector<RankStep<T>> steps;
};

/// The plan as rank `rank` runs it, specialized to a statevector
/// precision. Each plan op is projected onto the rank (local ops whose
/// partition-qubit controls fail there drop out, diagonal payloads keep
/// the entries the rank's partition bits select, exchange targets move to
/// the wide qubits m..m+h-1) and goes straight through `specialize_op`,
/// the pass single-node programs use, so op payloads round identically.
/// Plan ops share their source ops' matrices, and a rank program's dense
/// ops share one rounding of each. Instantiated for float and double, the
/// tiers a shard group runs.
template <typename T>
RankProgram<T> specialize_rank(const ExchangePlan& plan, std::uint32_t rank);

extern template RankProgram<float> specialize_rank<float>(const ExchangePlan&, std::uint32_t);
extern template RankProgram<double> specialize_rank<double>(const ExchangePlan&, std::uint32_t);

}  // namespace mpqls::qsim::exec::dist
