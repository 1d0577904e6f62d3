// Multi-RHS panel executor vs sequential compiled replay — the acceptance
// benchmark for the panel subsystem: one prepared gate-level QSVT context
// serving a batch of right-hand sides. The sequential path replays the
// cached program once per RHS on a one-lane panel (`qsvt_solve_direction`);
// the panel path loads the batch into StatePanel lanes and replays the
// program once per panel (`qsvt_solve_directions`). Acceptance: >= 2x
// per-RHS throughput at panel width >= 8 on the banded workload, with the
// per-RHS directions agreeing within tolerance. Every replay runs on the
// calling thread, so the ratio measures the lane kernels alone.
//
//   build/bench/perf_panel_exec            # full run + acceptance check
//   build/bench/perf_panel_exec --smoke    # one tiny rep, no acceptance
//
// Emits BENCH_panel_exec.json (see bench_io.hpp) next to the table: per
// scenario, `<scenario>.seq_ms_per_rhs` and `<scenario>.panel_ms_w<width>`.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <span>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/random_matrix.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;

struct Scenario {
  const char* name;
  linalg::Matrix<double> A;
  qsvt::QsvtOptions options;
  int reps;
};

struct Measurement {
  double sequential_seconds = 0.0;              ///< per-RHS, one-lane replay
  std::vector<double> panel_seconds;            ///< per-RHS, one entry per width
  double worst_diff = 0.0;                      ///< panel vs one-lane directions
};

Measurement run_scenario(const Scenario& sc, const std::vector<std::size_t>& widths,
                         std::size_t n_rhs) {
  const auto ctx = qsvt::prepare_qsvt_solver(sc.A, sc.options);
  const std::size_t N = sc.A.rows();

  Xoshiro256 rng(123);
  std::vector<linalg::Vector<double>> rhs;
  for (std::size_t k = 0; k < n_rhs; ++k) rhs.push_back(linalg::random_unit_vector(rng, N));

  Measurement m;

  // Sequential baseline: one one-lane panel per right-hand side, one full
  // program replay each.
  std::vector<linalg::Vector<double>> reference(n_rhs);
  {
    Timer t;
    for (int rep = 0; rep < sc.reps; ++rep) {
      for (std::size_t k = 0; k < n_rhs; ++k) {
        reference[k] = qsvt_solve_direction(ctx, rhs[k]).direction;
      }
    }
    m.sequential_seconds = t.seconds() / static_cast<double>(sc.reps * n_rhs);
  }

  for (const std::size_t width : widths) {
    Timer t;
    for (int rep = 0; rep < sc.reps; ++rep) {
      for (std::size_t begin = 0; begin < n_rhs; begin += width) {
        const std::size_t count = std::min(width, n_rhs - begin);
        const auto outcomes = qsvt_solve_directions(
            ctx, std::span<const linalg::Vector<double>>(rhs.data() + begin, count));
        if (rep == 0) {
          for (std::size_t k = 0; k < count; ++k) {
            for (std::size_t i = 0; i < N; ++i) {
              m.worst_diff = std::fmax(
                  m.worst_diff,
                  std::fabs(outcomes[k].direction[i] - reference[begin + k][i]));
            }
          }
        }
      }
    }
    m.panel_seconds.push_back(t.seconds() / static_cast<double>(sc.reps * n_rhs));
  }
  return m;
}

int run(bool smoke) {
  Xoshiro256 rng(7);

  qsvt::QsvtOptions tridiag;
  tridiag.encoding = qsvt::EncodingKind::kTridiagonal;
  tridiag.eps_l = 5e-2;

  qsvt::QsvtOptions dense;
  dense.eps_l = 1e-2;

  const int reps = smoke ? 1 : 6;
  const std::size_t n_rhs = smoke ? 8 : 16;
  const std::vector<std::size_t> widths = smoke ? std::vector<std::size_t>{4}
                                                : std::vector<std::size_t>{2, 4, 8, 16};

  Scenario scenarios[] = {
      {"tridiag-8-banded", linalg::dirichlet_laplacian(8), tridiag, reps},
      {"random-64-dense-be", linalg::random_with_cond(rng, 64, 10.0), dense,
       std::max(1, reps / 2)},
  };

  std::printf("panel executor vs sequential compiled replay: %zu rhs per context\n\n",
              n_rhs);

  bench::BenchReport report("panel_exec");
  report.label("mode", smoke ? "smoke" : "full");
  report.metric("n_rhs", static_cast<double>(n_rhs));

  bool exact = true;
  double acceptance = 0.0;
  std::vector<std::string> header = {"scenario", "seq (ms/rhs)"};
  for (const auto w : widths) header.push_back("panel@" + std::to_string(w));
  header.push_back("max |d dir|");
  TextTable table(header);
  for (const auto& sc : scenarios) {
    const auto m = run_scenario(sc, widths, n_rhs);
    const std::string key = std::string(sc.name) + ".";
    report.metric(key + "seq_ms_per_rhs", m.sequential_seconds * 1e3);
    std::vector<std::string> row = {sc.name, fmt_fix(m.sequential_seconds * 1e3, 2)};
    for (std::size_t wi = 0; wi < widths.size(); ++wi) {
      const double speedup = m.sequential_seconds / m.panel_seconds[wi];
      report.metric(key + "panel_ms_w" + std::to_string(widths[wi]), m.panel_seconds[wi] * 1e3);
      row.push_back(fmt_fix(m.panel_seconds[wi] * 1e3, 2) + " (" + fmt_fix(speedup, 2) +
                    "x)");
      if (&sc == &scenarios[0] && widths[wi] == 8) acceptance = speedup;
    }
    row.push_back(fmt_sci(m.worst_diff));
    table.add_row(row);
    exact = exact && m.worst_diff < 1e-9;
  }
  table.print(std::cout);
  std::printf("\n");
  report.metric("exact", exact ? 1.0 : 0.0);

  if (smoke) {
    std::printf("smoke mode: kernels exercised, acceptance not evaluated (diff %s)\n",
                exact ? "ok" : "ABOVE TOLERANCE");
    report.write();
    return exact ? 0 : 1;
  }

  std::printf("acceptance: panel width 8 >= 2x sequential replay on the banded workload\n");
  std::printf("  %.2fx -> %s\n", acceptance, acceptance >= 2.0 ? "PASS" : "FAIL");
  if (!exact) std::printf("WARNING: direction mismatch above 1e-9\n");
  const bool pass = exact && acceptance >= 2.0;
  report.metric("speedup_w8", acceptance);
  report.pass(pass);
  report.write();
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) smoke = smoke || std::strcmp(argv[i], "--smoke") == 0;
  return run(smoke);
}
