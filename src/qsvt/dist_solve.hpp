// Distributed gate-level QSVT solves: one rank's view of a shard-group
// solve. Each of the W = 2^k workers holds its shard of the QSVT register
// as a StatePanel over the m = n - k local qubits, one lane per
// right-hand side, replays the rank's slice of the context's compiled
// program (exchange_plan.hpp), and allreduces postselection
// probabilities, direction amplitudes, and imaginary mass across the
// group — once per sweep, like the single-node panel path. Every rank
// computes the full classical epilogue on the identical allreduced
// values, so every rank returns the identical QsvtSolveOutcomes — which
// is what lets the adaptive-precision refinement loop above run
// unchanged and stay in lockstep: identical outcomes drive identical
// tier decisions.
//
// Bitwise parity with single-node replay: the postselected subspace fixes
// the register's top qubits (realpart=1, signal=0, BE ancillas=0), so for
// world sizes that partition only those qubits the surviving amplitudes —
// and the reduction partials — live on exactly one rank; the other ranks
// contribute exact zeros and the outcome equals the single-node panel
// solve of the same lanes bit for bit (see exchange_plan.hpp for the
// replay side). Sweeps hold shard_panel_lanes lanes, sized for the
// group's smallest request-body cap (agreed on first use).
//
// A session serves ONE job and holds only its transport state: the rank,
// the world size, the peer channel, the group's body cap (agreed on first
// use) and a single strictly-increasing exchange sequence counter threaded
// through every replay and allreduce. The exchange plan and the per-tier
// rank programs come from the context's ProgramSet, which builds each once
// and keeps it for the context's lifetime, so a dist job on a warm context
// compiles nothing. Calls must arrive in the same order on every rank (the
// refinement loop guarantees this); the session itself is not thread-safe.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "qsim/exec/dist/dist_executor.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsvt/solve.hpp"

namespace mpqls::qsvt::dist {

struct DistConfig {
  std::uint32_t rank = 0;
  std::uint32_t world_log2 = 0;
  std::shared_ptr<qsim::exec::dist::PeerChannel> channel;
};

/// Cumulative per-session counters (the mpqls_dist_* series).
struct DistSolveStats {
  std::uint64_t solves = 0;  ///< right-hand sides replayed (lanes, over all sweeps)
  std::uint64_t exchange_rounds = 0;
  std::uint64_t bytes_moved = 0;
  double exchange_seconds = 0.0;
  double local_seconds = 0.0;
  std::uint64_t plan_naive_rounds = 0;      ///< per sweep, before scheduling
  std::uint64_t plan_scheduled_rounds = 0;  ///< per sweep, as planned
};

class DistSolveSession {
 public:
  explicit DistSolveSession(DistConfig config);
  ~DistSolveSession();

  std::uint32_t rank() const { return config_.rank; }
  std::uint32_t world_log2() const { return config_.world_log2; }

  /// Drop-in for qsvt_solve_directions on the gate-level panel path: solve
  /// every right-hand side at the tier `tier` resolves to (resolve_tier) in
  /// shard-panel sweeps of shard_panel_lanes lanes (lockstep across
  /// ranks), counting them in `stats` like local sweeps.
  std::vector<QsvtSolveOutcome> solve_directions(
      const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs,
      QpuPrecision tier, PanelExecStats* stats = nullptr);

  const DistSolveStats& stats() const { return stats_; }

 private:
  template <typename T>
  void sweep(const QsvtSolverContext& ctx, const qsim::exec::dist::RankProgram<T>& program,
             std::span<const linalg::Vector<double>* const> rhs,
             std::vector<QsvtSolveOutcome>& out);
  template <typename T>
  void solve_tier(const QsvtSolverContext& ctx,
                  const std::vector<const linalg::Vector<double>*>& rhs,
                  std::vector<QsvtSolveOutcome>& out, PanelExecStats* stats);

  DistConfig config_;
  std::optional<std::size_t> body_cap_;  ///< smallest request-body cap in the group
  std::uint64_t seq_ = 0;
  DistSolveStats stats_;
};

}  // namespace mpqls::qsvt::dist
