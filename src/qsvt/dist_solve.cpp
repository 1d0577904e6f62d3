#include "qsvt/dist_solve.hpp"

#include <algorithm>
#include <cmath>

#include "common/contracts.hpp"
#include "linalg/blas.hpp"

namespace mpqls::qsvt::dist {

namespace edist = qsim::exec::dist;

DistSolveSession::DistSolveSession(DistConfig config) : config_(std::move(config)) {
  expects(config_.world_log2 >= 1, "dist solve: need at least 2 shards");
  expects(config_.rank < (1u << config_.world_log2), "dist solve: rank out of range");
  expects(config_.channel != nullptr, "dist solve: no peer channel");
}

DistSolveSession::~DistSolveSession() = default;

template <typename T>
void DistSolveSession::sweep(const QsvtSolverContext& ctx,
                             const qsim::exec::dist::RankProgram<T>& program,
                             std::span<const linalg::Vector<double>* const> rhs,
                             std::vector<QsvtSolveOutcome>& out) {
  const QsvtCircuit& qc = *ctx.circuit;
  const std::size_t N = ctx.A.rows();
  const std::size_t B = rhs.size();
  const std::uint32_t m = program.local_qubits;
  const std::uint32_t rank = config_.rank;

  // Load every lane with this rank's slice of the normalized right-hand
  // side (global amplitude g = rank·2^m + i), normalized classically —
  // identically on every rank.
  qsim::exec::StatePanel<T> shard(m, B);
  const std::size_t base = std::size_t{rank} << m;
  std::vector<double> slice;
  for (std::size_t lane = 0; lane < B; ++lane) {
    expects(rhs[lane]->size() == N, "dist solve: dimension mismatch");
    const double n = linalg::nrm2(*rhs[lane]);
    expects(n > 0.0, "dist solve: zero right-hand side");
    slice.clear();
    for (std::size_t g = base; g < N && g < base + shard.dim(); ++g) {
      slice.push_back((*rhs[lane])[g] / n);
    }
    shard.load_lane_real(lane, slice);
  }

  edist::DistRunMetrics metrics;
  edist::run_rank_program<T>(program, shard, *config_.channel, seq_, &metrics);

  // Postselect: BE ancillas and signal at |0>, real-part qubit at |1>.
  // The probability partials are allreduced so every rank scales by the
  // same global p (the surviving subspace typically lives on one rank;
  // the rest contribute exact zeros).
  const auto zeros = qc.zero_postselect();
  const std::vector<std::uint32_t> ones = {qc.realpart_qubit};
  auto p = edist::shard_probability_match(shard, rank, zeros, ones);
  edist::allreduce_sum(*config_.channel, rank, config_.world_log2, seq_, p.data(), B);
  // Checked on every rank: a rank owning no survivor skips project's own
  // check and would otherwise wait on the direction allreduce.
  for (const double pl : p) expects(pl > 0.0, "dist solve: zero-probability postselection");
  edist::shard_project(shard, rank, zeros, ones, p);

  // Direction + imaginary-mass partials of every lane in one B·(N+1)-word
  // allreduce: the owner of each surviving amplitude contributes its
  // value, everyone else exact zero.
  const std::uint64_t rp_bit = std::uint64_t{1} << qc.realpart_qubit;
  std::vector<double> reduce(B * (N + 1), 0.0);
  for (std::size_t lane = 0; lane < B; ++lane) {
    double* r = reduce.data() + lane * (N + 1);
    for (std::size_t i = 0; i < N; ++i) {
      const std::uint64_t g = static_cast<std::uint64_t>(i) | rp_bit;
      if ((g >> m) != rank) continue;
      const auto a = shard.amp(static_cast<std::size_t>(g - base), lane);
      r[i] = a.real();
      r[N] += a.imag() * a.imag();
    }
  }
  edist::allreduce_sum(*config_.channel, rank, config_.world_log2, seq_, reduce.data(),
                       reduce.size());

  for (std::size_t lane = 0; lane < B; ++lane) {
    const double* r = reduce.data() + lane * (N + 1);
    QsvtSolveOutcome o;
    o.direction.assign(r, r + N);
    ensures(r[N] < 1e-6, "dist solve: unexpected imaginary amplitudes");
    const double n = linalg::nrm2(o.direction);
    expects(n > 0.0, "dist solve: zero-probability postselection");
    for (auto& x : o.direction) x /= n;
    o.success_probability = p[lane];
    o.be_calls = qc.be_calls;
    o.circuit_gates = qc.circuit.size() + ctx.sp_circuit_gates;
    out.push_back(std::move(o));
  }

  stats_.solves += B;
  stats_.exchange_rounds += metrics.exchange_rounds;
  stats_.bytes_moved += metrics.bytes_moved;
  stats_.exchange_seconds += metrics.exchange_seconds;
  stats_.local_seconds += metrics.local_seconds;
  const auto& plan_stats = ctx.programs->plan(config_.world_log2).stats;
  stats_.plan_naive_rounds += plan_stats.naive_rounds;
  stats_.plan_scheduled_rounds += plan_stats.scheduled_rounds;
}

template <typename T>
void DistSolveSession::solve_tier(const QsvtSolverContext& ctx,
                                  const std::vector<const linalg::Vector<double>*>& rhs,
                                  std::vector<QsvtSolveOutcome>& out, PanelExecStats* stats) {
  const auto& program = ctx.programs->rank_program<T>(config_.world_log2, config_.rank);
  const std::size_t lanes = edist::shard_panel_lanes(program, rhs.size(), *body_cap_);
  for (std::size_t begin = 0; begin < rhs.size(); begin += lanes) {
    const std::size_t count = std::min(lanes, rhs.size() - begin);
    sweep<T>(ctx, program, std::span(rhs).subspan(begin, count), out);
    if (stats) {
      stats->panels += 1;
      stats->lanes += count;
    }
  }
}

std::vector<QsvtSolveOutcome> DistSolveSession::solve_directions(
    const QsvtSolverContext& ctx, const std::vector<const linalg::Vector<double>*>& rhs,
    QpuPrecision tier, PanelExecStats* stats) {
  expects(!rhs.empty(), "dist solve: at least one right-hand side");
  expects(tier != QpuPrecision::kAdaptive, "dist solve: tier must be a concrete precision");
  expects(ctx.options.backend == Backend::kGateLevel, "dist solve: gate-level contexts only");
  expects(ctx.programs != nullptr, "dist solve: context has no compiled program");
  expects(ctx.options.noise.depolarizing_per_gate == 0.0 &&
              ctx.options.noise.damping_per_gate == 0.0,
          "dist solve: noise trajectories are single-node only");
  if (!body_cap_) {
    // Ranks may differ in body cap; all size their panels for the smallest.
    body_cap_ = edist::group_body_cap(*config_.channel, config_.rank, config_.world_log2, seq_);
  }
  std::vector<QsvtSolveOutcome> out;
  out.reserve(rhs.size());
  if (resolve_tier(ctx, tier) == QpuPrecision::kSingle) {
    solve_tier<float>(ctx, rhs, out, stats);
  } else {
    solve_tier<double>(ctx, rhs, out, stats);
  }
  return out;
}

}  // namespace mpqls::qsvt::dist
