// Compiled execution engine vs the gate-by-gate interpreter on the
// workload it was built for: one prepared gate-level QSVT context serving
// many right-hand sides. The interpreter path re-walks the cached circuit
// per solve, re-deriving every gate matrix; the compiled path replays the
// context's fused, precision-specialized program on a one-lane panel (the
// single-RHS replay path). Acceptance: >= 2x wall-clock with amplitudes
// agreeing within precision tolerance.
//
// Emits BENCH_compiled_exec.json (see bench_io.hpp).
//
//   build/bench/perf_compiled_exec
#include <cmath>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/statevector.hpp"
#include "qsvt/solve.hpp"
#include "stateprep/kp_tree.hpp"

namespace {

using namespace mpqls;

struct Scenario {
  const char* name;
  linalg::Matrix<double> A;
  qsvt::QsvtOptions options;
  int reps;
};

struct Measurement {
  double interpreted_seconds = 0.0;
  double compiled_seconds = 0.0;
  double worst_amp_diff = 0.0;
  qsim::exec::ProgramStats stats;
};

Measurement run_scenario(const Scenario& sc) {
  const auto ctx = qsvt::prepare_qsvt_solver(sc.A, sc.options);
  const qsvt::QsvtCircuit& qc = *ctx.circuit;
  const std::uint32_t width = qc.circuit.num_qubits();
  const std::size_t N = sc.A.rows();

  Xoshiro256 rng(123);
  std::vector<linalg::Vector<double>> rhs;
  for (int k = 0; k < 8; ++k) rhs.push_back(linalg::random_unit_vector(rng, N));

  auto zeros = qc.zero_postselect();
  zeros.push_back(qc.realpart_qubit);
  qsim::Circuit flip(width);
  flip.x(qc.realpart_qubit);

  Measurement m;
  m.stats = *qsvt::compiled_program_stats(ctx);

  // Gate-by-gate interpreter: the per-RHS hot path before this engine.
  std::vector<std::vector<double>> interpreted(rhs.size());
  {
    Timer t;
    for (int rep = 0; rep < sc.reps; ++rep) {
      for (std::size_t r = 0; r < rhs.size(); ++r) {
        const auto sp = stateprep::kp_state_preparation(rhs[r]);
        qsim::Statevector<double> sv(width);
        sv.apply(sp.circuit);
        sv.apply(qc.circuit);
        sv.apply(flip);
        sv.postselect_zero(zeros);
        interpreted[r].resize(N);
        for (std::size_t i = 0; i < N; ++i) interpreted[r][i] = sv[i].real();
      }
    }
    m.interpreted_seconds = t.seconds();
  }

  // Compiled replay: a per-RHS compiled state-preparation program and the
  // context's cached program, replayed on a one-lane panel.
  std::vector<std::vector<double>> compiled(rhs.size());
  {
    const qsim::exec::PanelExecutor<double> executor;
    const std::size_t rp_bit = std::size_t{1} << qc.realpart_qubit;
    Timer t;
    for (int rep = 0; rep < sc.reps; ++rep) {
      for (std::size_t r = 0; r < rhs.size(); ++r) {
        const auto sp = stateprep::kp_state_preparation(rhs[r]);
        qsim::exec::StatePanel<double> panel(width, 1);
        executor.run(qsim::exec::compile<double>(sp.circuit), panel);
        executor.run(ctx.programs->get<double>(), panel);
        panel.postselect(qc.zero_postselect(), {qc.realpart_qubit});
        compiled[r].resize(N);
        for (std::size_t i = 0; i < N; ++i) compiled[r][i] = panel.amp(i | rp_bit, 0).real();
      }
    }
    m.compiled_seconds = t.seconds();
  }

  for (std::size_t r = 0; r < rhs.size(); ++r) {
    for (std::size_t i = 0; i < N; ++i) {
      m.worst_amp_diff = std::fmax(m.worst_amp_diff, std::fabs(interpreted[r][i] - compiled[r][i]));
    }
  }
  return m;
}

}  // namespace

int main() {
  Xoshiro256 rng(7);

  qsvt::QsvtOptions tridiag;
  tridiag.encoding = qsvt::EncodingKind::kTridiagonal;
  tridiag.eps_l = 5e-2;

  qsvt::QsvtOptions lcu;
  lcu.encoding = qsvt::EncodingKind::kLcuPauli;
  lcu.eps_l = 1e-2;

  qsvt::QsvtOptions dense;
  dense.eps_l = 1e-2;

  Scenario scenarios[] = {
      {"tridiag-8-banded", linalg::dirichlet_laplacian(8), tridiag, 2},
      {"random-8-lcu", linalg::random_with_cond(rng, 8, 10.0), lcu, 2},
      {"random-16-dense-be", linalg::random_with_cond(rng, 16, 10.0), dense, 4},
  };

  std::printf("compiled executor vs gate-by-gate interpreter: 8 rhs per context\n\n");
  TextTable table({"scenario", "gates", "ops", "depth", "compile (ms)", "interp (ms)",
                   "compiled (ms)", "speedup", "max |d amp|"});
  bool exact = true;
  bench::BenchReport report("compiled_exec");
  // The acceptance workload is the first scenario (repeated right-hand
  // sides against one cached gate-level QSVT circuit, the banded
  // encoding): compiled must win by >= 2x there. The remaining scenarios
  // guard against regressions on other circuit shapes (>= 1.2x) — the
  // LCU select circuits in particular sit closer to the interpreter
  // because their cost is dominated by unfusable full-register sweeps.
  double acceptance = 0.0;
  double guard = 1e300;
  for (const auto& sc : scenarios) {
    const auto m = run_scenario(sc);
    const double speedup = m.interpreted_seconds / m.compiled_seconds;
    table.add_row({sc.name, std::to_string(m.stats.source_gates), std::to_string(m.stats.ops),
                   std::to_string(m.stats.depth), fmt_fix(m.stats.compile_seconds * 1e3, 1),
                   fmt_fix(m.interpreted_seconds * 1e3, 1), fmt_fix(m.compiled_seconds * 1e3, 1),
                   fmt_fix(speedup, 2) + "x", fmt_sci(m.worst_amp_diff)});
    exact = exact && m.worst_amp_diff < 1e-9;
    report.metric(std::string("speedup_") + sc.name, speedup);
    report.metric(std::string("compiled_ms_") + sc.name, m.compiled_seconds * 1e3);
    if (&sc == &scenarios[0]) {
      acceptance = speedup;
    } else {
      guard = std::fmin(guard, speedup);
    }
  }
  table.print(std::cout);

  std::printf("\nacceptance: compiled >= 2x interpreter on the repeated-RHS QSVT workload: "
              "%.2fx -> %s\n",
              acceptance, acceptance >= 2.0 ? "PASS" : "FAIL");
  std::printf("regression guard: >= 1.2x on the remaining scenarios: %.2fx -> %s\n", guard,
              guard >= 1.2 ? "PASS" : "FAIL");
  if (!exact) std::printf("WARNING: amplitude mismatch above 1e-9\n");
  const bool pass = exact && acceptance >= 2.0 && guard >= 1.2;
  report.metric("exact", exact ? 1.0 : 0.0);
  report.metric("acceptance_speedup", acceptance);
  report.metric("guard_speedup", guard);
  report.pass(pass);
  report.write();
  return pass ? 0 : 1;
}
