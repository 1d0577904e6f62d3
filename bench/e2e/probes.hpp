// In-process layer probes for perf_e2e's traced run. Each step of context
// preparation, the dispatching QSVT direction entry and the backend replay
// are timed by calling their public functions on the workload's own
// inputs (median of kProbeReps), next to exact op counts and computed
// payload sizes and flop counts of the compiled program.
#pragma once

#include <bit>
#include <cmath>
#include <complex>
#include <string>
#include <vector>

#include "blockenc/dense_embedding.hpp"
#include "linalg/blas.hpp"
#include "linalg/jacobi_svd.hpp"
#include "measure.hpp"
#include "poly/inverse_poly.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel.hpp"
#include "qsp/symmetric_qsp.hpp"
#include "qsvt/qsvt_circuit.hpp"
#include "qsvt/solve.hpp"
#include "service/json_io.hpp"
#include "wire/codec.hpp"
#include "workloads.hpp"

namespace mpqls::bench::e2e {

inline constexpr int kProbeReps = 5;

inline constexpr double kMiB = 1024.0 * 1024.0;

/// Arithmetic of one panel sweep of `ir` over `lanes` lanes, counting a
/// complex multiply-add as 8 flops and a complex multiply as 6: a dense op
/// on k targets with c controls does 4^k multiply-adds on each of
/// 2^(n-k-c) blocks, a 1-qubit op 4 on each of 2^(n-1-c), a diagonal one
/// multiply per amplitude it touches.
inline double sweep_flops(const qsim::exec::FusedIr& ir, std::size_t lanes) {
  const double dim = std::ldexp(1.0, static_cast<int>(ir.num_qubits));
  double flops = 0.0;
  for (const auto& op : ir.ops) {
    const int controls = std::popcount(op.pos_mask | op.neg_mask);
    const int k = static_cast<int>(op.targets.size());
    switch (op.kind) {
      case qsim::exec::OpKind::kDense:
        flops += std::ldexp(dim, -(k + controls)) * std::ldexp(1.0, 2 * k) * 8.0;
        break;
      case qsim::exec::OpKind::kApply1q:
        flops += std::ldexp(dim, -(1 + controls)) * 4.0 * 8.0;
        break;
      case qsim::exec::OpKind::kDiagonal:
        flops += std::ldexp(dim, -controls) * 6.0;
        break;
      case qsim::exec::OpKind::kGlobalPhase:
        flops += dim * 6.0;
        break;
    }
  }
  return flops * static_cast<double>(lanes);
}

/// Bytes of matrix data and gather tables a specialized program holds.
template <typename T>
double program_payload_bytes(const qsim::exec::Program<T>& program) {
  using C = qsim::exec::exec_compute_t<T>;
  double bytes = 0.0;
  for (const auto& op : program.ops) {
    bytes += static_cast<double>(op.payload.size() * sizeof(std::complex<C>) +
                                 (op.payload_re.size() + op.payload_im.size()) * sizeof(C) +
                                 op.offsets.size() * sizeof(std::uint64_t));
  }
  return bytes;
}

/// Specialization, direction and replay timings of one precision tier at
/// the workload's lane count, on a context of its own so only one tier's
/// program is resident at a time. Returns the specialization time.
template <typename T>
double probe_tier(const char* tier, qsvt::QpuPrecision precision,
                  const linalg::Matrix<double>& A, const qsvt::QsvtOptions& options,
                  const std::vector<const linalg::Vector<double>*>& lanes, double sweep_gflop,
                  MetricSet& m) {
  const qsvt::QsvtSolverContext ctx = qsvt::prepare_qsvt_solver(A, options);
  const double specialize = median_seconds(
      kProbeReps, [&] { return qsim::exec::specialize<T>(ctx.programs->ir()); });
  const double direction = median_seconds(
      kProbeReps, [&] { return qsvt::qsvt_solve_directions(ctx, lanes, nullptr, precision); });

  const auto& program = ctx.programs->get<T>();
  const std::uint32_t width = ctx.circuit->circuit.num_qubits();
  std::vector<double> replays;
  for (int r = 0; r < kProbeReps; ++r) {
    qsim::exec::StatePanel<T> panel(width, lanes.size());
    for (std::size_t l = 0; l < lanes.size(); ++l) panel.load_lane_real(l, *lanes[l]);
    const auto t0 = Clock::now();
    ctx.exec_backend->apply_program_panel(*ctx.backend_handle, program, panel);
    replays.push_back(seconds_between(t0, Clock::now()));
  }
  const double replay = median(std::move(replays));

  const std::string t = tier;
  m.add("exec.specialize_s." + t, specialize, "s");
  m.add("qsvt.direction_s." + t, direction, "s");
  m.add("exec.replay_s." + t, replay, "s");
  m.add("exec.gflops." + t, replay > 0.0 ? sweep_gflop / replay : 0.0, "GFLOP/s");
  m.add("exec.program_payload_mb." + t, program_payload_bytes(program) / kMiB, "MiB");
  return specialize;
}

/// Run every probe on one job of the workload: its matrix, its
/// right-hand sides (the lane count the service replays at) and its body
/// as it went over the wire.
inline void run_probes(const Workload& w, const JobInput& job, MetricSet& m) {
  const linalg::Matrix<double>& A = *job.A;
  const qsvt::QsvtOptions qo = job_options(w).qsvt;
  std::vector<const linalg::Vector<double>*> lanes;
  for (const auto& b : job.rhs) lanes.push_back(&b);

  // Front-door decode of the job body, as the job worker runs it.
  const bool frame = job.content_type == wire::kContentType;
  const service::MatrixResolver resolve = [&](std::uint64_t) { return job.A; };
  m.add("wire.decode_s", median_seconds(kProbeReps, [&] {
          return frame ? wire::decode_request(job.body, resolve)
                       : service::request_from_json(Json::parse(job.body), resolve);
        }), "s");

  const double prepare =
      median_seconds(kProbeReps, [&] { return qsvt::prepare_qsvt_solver(A, qo); });
  double steps = 0.0;
  double sweep_gflop = 0.0;
  {
    // Each prepare step's public function, on a reference context's inputs.
    const qsvt::QsvtSolverContext ctx = qsvt::prepare_qsvt_solver(A, qo);
    const auto step = [&](const char* name, double seconds) {
      m.add(name, seconds, "s");
      steps += seconds;
    };
    step("linalg.svd_s", median_seconds(kProbeReps, [&] { return linalg::jacobi_svd(A); }));
    step("blockenc.encode_s", median_seconds(kProbeReps, [&] {
           return blockenc::dense_embedding(linalg::transpose(A));
         }));
    step("poly.fit_s", median_seconds(kProbeReps, [&] {
           return qo.poly_method == qsvt::PolyMethod::kAnalytic
                      ? poly::inverse_poly_analytic(ctx.kappa_effective, qo.eps_l)
                      : poly::inverse_poly_interpolated(ctx.kappa_effective, qo.eps_l);
         }));
    step("qsp.phases_s", median_seconds(kProbeReps, [&] {
           return qsp::solve_symmetric_qsp(ctx.target, qo.qsp_options);
         }));
    step("qsvt.circuit_s", median_seconds(kProbeReps, [&] {
           return qsvt::build_qsvt_circuit(ctx.be, ctx.phases.phases);
         }));
    step("exec.lower_fuse_s", median_seconds(kProbeReps, [&] {
           return qsim::exec::lower_and_fuse(ctx.circuit->circuit);
         }));
    m.add("qsp.degree", ctx.target.degree(), "count");

    // The compiled program: exact op counts, payload and per-sweep work.
    const auto& ir = ctx.programs->ir();
    double dense = 0, diagonal = 0, apply1q = 0, ir_bytes = 0;
    for (const auto& op : ir.ops) {
      dense += op.kind == qsim::exec::OpKind::kDense;
      diagonal += op.kind == qsim::exec::OpKind::kDiagonal;
      apply1q += op.kind == qsim::exec::OpKind::kApply1q;
      ir_bytes += static_cast<double>(op.payload.size() * sizeof(std::complex<double>));
    }
    sweep_gflop = sweep_flops(ir, lanes.size()) * 1e-9;
    m.add("exec.ops.dense", dense, "count");
    m.add("exec.ops.diagonal", diagonal, "count");
    m.add("exec.ops.apply1q", apply1q, "count");
    m.add("exec.sweep_gflop", sweep_gflop, "GFLOP");
    m.add("exec.ir_payload_mb", ir_bytes / kMiB, "MiB");
  }

  const double specialize_half = probe_tier<qsim::exec::f16>(
      "half", qsvt::QpuPrecision::kHalf, A, qo, lanes, sweep_gflop, m);
  const double specialize_single = probe_tier<float>(
      "single", qsvt::QpuPrecision::kSingle, A, qo, lanes, sweep_gflop, m);
  const double specialize_double = probe_tier<double>(
      "double", qsvt::QpuPrecision::kDouble, A, qo, lanes, sweep_gflop, m);

  // prepare_qsvt_solver specializes a fixed-precision context's one tier
  // eagerly and leaves every tier of an adaptive context lazy.
  double eager = 0.0;
  switch (qo.precision) {
    case qsvt::QpuPrecision::kHalf: eager = specialize_half; break;
    case qsvt::QpuPrecision::kSingle: eager = specialize_single; break;
    case qsvt::QpuPrecision::kDouble: eager = specialize_double; break;
    case qsvt::QpuPrecision::kAdaptive: break;
  }
  m.add("qsvt.prepare_s", prepare, "s");
  m.add("qsvt.prepare_residue_s", prepare - steps - eager, "s");
}

}  // namespace mpqls::bench::e2e
