// Multi-RHS panel executor vs sequential compiled replay — the acceptance
// benchmark for the panel subsystem: one prepared gate-level QSVT context
// serving a batch of right-hand sides. The sequential path replays the
// cached program once per RHS on a one-lane panel (`qsvt_solve_direction`);
// the panel path loads the batch into StatePanel lanes and replays the
// program once per panel (`qsvt_solve_directions`). Acceptance: >= 2x
// per-RHS throughput at panel width 8 on both workloads — the banded
// program and the dense-embedding one, whose real block-encoding ops run
// the register-tiled real kernel — with the per-RHS directions agreeing
// within tolerance. Every replay runs on the calling thread, so the ratio
// measures the lane kernels alone. Each round replays the batch once
// sequentially and once at every width, in alternating order, and the
// gate takes the median over rounds of each round's own ratio, so host
// load that comes and goes between phases does not decide it.
//
// A second table times one `PanelExecutor<T>::run` sweep of each
// scenario's program at B = 1…16, 17 and 24 lanes on every tier. Widths
// without a compiled kernel replay padded to the next compiled width
// (never below 2), in chunks of at most 16 lanes. Acceptance: no B-lane
// sweep costs more than 1.15x the sweeps it pads to, i.e. the next
// compiled width, or above 16 lanes the sum of its chunks' padded widths.
// Every round times each lane count once, so a ratio pairs sweeps of the
// same round; the gate takes its median over 15 rounds, so a burst of
// host load in a few rounds does not decide it.
//
//   build/bench/perf_panel_exec            # full run + acceptance check
//   build/bench/perf_panel_exec --smoke    # one tiny rep, no acceptance
//
// Emits BENCH_panel_exec.json (see bench_io.hpp) next to the tables: per
// scenario, `<scenario>.seq_ms_per_rhs`, `<scenario>.panel_ms_w<width>` and
// the gated `<scenario>.speedup_w8`;
// per scenario and tier, the sweep time `<scenario>.<tier>.lane_ms_b<B>`.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "bench_io.hpp"
#include "common/rng.hpp"
#include "common/table.hpp"
#include "common/timer.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;

struct Scenario {
  const char* name;
  linalg::Matrix<double> A;
  qsvt::QsvtOptions options;
};

/// Per-RHS replay times, medians over rounds.
struct Measurement {
  double sequential_seconds = 0.0;   ///< one-lane replay
  std::vector<double> panel_seconds; ///< one entry per width
  std::vector<double> speedup;       ///< per width: median of the rounds' seq / panel
  double worst_diff = 0.0;           ///< panel vs one-lane directions
};

double median(std::vector<double> v) {
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Seconds per `PanelExecutor<T>::run` sweep of the context's T program
/// at each lane count of `lanes`, for each of `rounds` rounds:
/// result[i][r] is lane count i in round r. A round times every count
/// once, in alternating order, so the counts of one round see about the
/// same host load; each sample is long enough (>= 5 ms) to rise above
/// the timer.
template <typename T>
std::vector<std::vector<double>> sweep_seconds(const qsvt::QsvtSolverContext& ctx,
                                               const std::vector<linalg::Vector<double>>& rhs,
                                               const std::vector<std::size_t>& lanes,
                                               int rounds) {
  const auto& program = ctx.programs->get<T>();
  const qsim::exec::PanelExecutor<T> exec;
  std::vector<qsim::exec::StatePanel<T>> panels;
  std::vector<int> sweeps;
  for (const std::size_t b : lanes) {
    auto& panel = panels.emplace_back(ctx.circuit->circuit.num_qubits(), b);
    for (std::size_t l = 0; l < b; ++l) panel.load_lane_real(l, rhs[l % rhs.size()]);
    Timer probe;
    exec.run(program, panel);
    sweeps.push_back(std::max(1, static_cast<int>(5e-3 / std::fmax(probe.seconds(), 1e-9))));
  }
  std::vector<std::vector<double>> seconds(lanes.size(), std::vector<double>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < lanes.size(); ++k) {
      const std::size_t i = r % 2 == 0 ? k : lanes.size() - 1 - k;
      Timer t;
      for (int n = 0; n < sweeps[i]; ++n) exec.run(program, panels[i]);
      seconds[i][r] = t.seconds() / sweeps[i];
    }
  }
  return seconds;
}

/// The compiled widths a B-lane sweep runs at: B itself if compiled,
/// else one padded width per chunk of at most 16 lanes.
std::vector<std::size_t> compiled_widths(std::size_t lanes) {
  if (lanes == 1) return {1};
  std::vector<std::size_t> widths;
  for (std::size_t first = 0; first < lanes; first += qsim::exec::kMaxCompiledLanes) {
    const std::size_t count = std::min(qsim::exec::kMaxCompiledLanes, lanes - first);
    widths.push_back(qsim::exec::padded_width(count));
  }
  return widths;
}

/// One column of the lane-count table: per lane count, the best sweep
/// time, and the median over rounds of that sweep's ratio to the compiled
/// sweeps it pads to, timed in the same round.
struct LaneColumn {
  std::string name;
  std::vector<double> seconds;
  std::vector<double> ratio;
};

template <typename T>
LaneColumn lane_column(const std::string& name, const qsvt::QsvtSolverContext& ctx,
                       const std::vector<linalg::Vector<double>>& rhs,
                       const std::vector<std::size_t>& lane_counts, int rounds) {
  // Time every lane count and every compiled width one of them pads to.
  std::set<std::size_t> measured(lane_counts.begin(), lane_counts.end());
  for (const std::size_t b : lane_counts) {
    for (const std::size_t w : compiled_widths(b)) measured.insert(w);
  }
  const std::vector<std::size_t> lanes(measured.begin(), measured.end());
  const auto t = sweep_seconds<T>(ctx, rhs, lanes, rounds);
  const auto at = [&](std::size_t b) -> const std::vector<double>& {
    return t[std::lower_bound(lanes.begin(), lanes.end(), b) - lanes.begin()];
  };

  LaneColumn col{name, {}, {}};
  for (const std::size_t b : lane_counts) {
    const auto& tb = at(b);
    col.seconds.push_back(*std::min_element(tb.begin(), tb.end()));
    const auto widths = compiled_widths(b);
    if (widths == std::vector<std::size_t>{b}) {
      col.ratio.push_back(1.0);
      continue;
    }
    std::vector<double> ratios;
    for (int r = 0; r < rounds; ++r) {
      double padded = 0.0;
      for (const std::size_t w : widths) padded += at(w)[r];
      ratios.push_back(tb[r] / padded);
    }
    col.ratio.push_back(median(std::move(ratios)));
  }
  return col;
}

Measurement run_scenario(const qsvt::QsvtSolverContext& ctx, const Scenario& sc,
                         const std::vector<linalg::Vector<double>>& rhs,
                         const std::vector<std::size_t>& widths, int rounds) {
  const std::size_t N = sc.A.rows();
  const std::size_t n_rhs = rhs.size();
  Measurement m;

  // Sequential baseline: one one-lane panel per right-hand side, one full
  // program replay each. The untimed first pass is the reference.
  std::vector<linalg::Vector<double>> reference(n_rhs);
  for (std::size_t k = 0; k < n_rhs; ++k) {
    reference[k] = qsvt_solve_direction(ctx, rhs[k]).direction;
  }
  const auto sequential = [&] {
    for (std::size_t k = 0; k < n_rhs; ++k) (void)qsvt_solve_direction(ctx, rhs[k]);
  };
  const auto panels = [&](std::size_t width, bool check) {
    for (std::size_t begin = 0; begin < n_rhs; begin += width) {
      const std::size_t count = std::min(width, n_rhs - begin);
      const auto outcomes = qsvt_solve_directions(
          ctx, std::span<const linalg::Vector<double>>(rhs.data() + begin, count));
      if (!check) continue;
      for (std::size_t k = 0; k < count; ++k) {
        for (std::size_t i = 0; i < N; ++i) {
          m.worst_diff = std::fmax(
              m.worst_diff, std::fabs(outcomes[k].direction[i] - reference[begin + k][i]));
        }
      }
    }
  };

  // Phase 0 is the sequential pass, phase 1 + i the panel pass at
  // widths[i]; a round runs every phase once, in alternating order.
  const std::size_t phases = widths.size() + 1;
  std::vector<std::vector<double>> seconds(phases, std::vector<double>(rounds));
  for (int r = 0; r < rounds; ++r) {
    for (std::size_t k = 0; k < phases; ++k) {
      const std::size_t p = r % 2 == 0 ? k : phases - 1 - k;
      Timer t;
      if (p == 0) {
        sequential();
      } else {
        panels(widths[p - 1], r == 0);
      }
      seconds[p][r] = t.seconds() / static_cast<double>(n_rhs);
    }
  }

  m.sequential_seconds = median(seconds[0]);
  for (std::size_t i = 0; i < widths.size(); ++i) {
    m.panel_seconds.push_back(median(seconds[1 + i]));
    std::vector<double> ratios;
    for (int r = 0; r < rounds; ++r) ratios.push_back(seconds[0][r] / seconds[1 + i][r]);
    m.speedup.push_back(median(std::move(ratios)));
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

  const std::size_t n_rhs = smoke ? 8 : 16;
  const std::vector<std::size_t> widths = smoke ? std::vector<std::size_t>{4}
                                                : std::vector<std::size_t>{2, 4, 8, 16};
  std::vector<std::size_t> lane_counts = {3, 17};
  if (!smoke) {
    lane_counts.clear();
    for (std::size_t b = 1; b <= 16; ++b) lane_counts.push_back(b);
    lane_counts.insert(lane_counts.end(), {17, 24});
  }
  const int rounds = smoke ? 1 : 15;
  const int batch_rounds = smoke ? 1 : 9;

  Scenario scenarios[] = {
      {"tridiag-8-banded", linalg::dirichlet_laplacian(8), tridiag},
      {"random-64-dense-be", linalg::random_with_cond(rng, 64, 10.0), dense},
  };

  std::printf("panel executor vs sequential compiled replay: %zu rhs per context\n\n",
              n_rhs);

  bench::BenchReport report("panel_exec");
  report.label("mode", smoke ? "smoke" : "full");
  report.metric("n_rhs", static_cast<double>(n_rhs));

  bool exact = true;
  std::vector<double> acceptance;  // width-8 speedup per scenario
  std::vector<std::string> header = {"scenario", "seq (ms/rhs)"};
  for (const auto w : widths) header.push_back("panel@" + std::to_string(w));
  header.push_back("max |d dir|");
  TextTable table(header);
  std::vector<LaneColumn> lane_columns;
  for (const auto& sc : scenarios) {
    const auto ctx = qsvt::prepare_qsvt_solver(sc.A, sc.options);
    Xoshiro256 rhs_rng(123);
    std::vector<linalg::Vector<double>> rhs;
    for (std::size_t k = 0; k < n_rhs; ++k) {
      rhs.push_back(linalg::random_unit_vector(rhs_rng, sc.A.rows()));
    }
    const auto m = run_scenario(ctx, sc, rhs, widths, batch_rounds);
    const std::string key = std::string(sc.name) + ".";
    // The solver runs no f16 tier; this column covers the f16 executor that
    // bench/e2e/probes.hpp still replays, and goes with it.
    lane_columns.push_back(
        lane_column<qsim::exec::f16>(key + "half", ctx, rhs, lane_counts, rounds));
    lane_columns.push_back(lane_column<float>(key + "single", ctx, rhs, lane_counts, rounds));
    lane_columns.push_back(lane_column<double>(key + "double", ctx, rhs, lane_counts, rounds));
    report.metric(key + "seq_ms_per_rhs", m.sequential_seconds * 1e3);
    std::vector<std::string> row = {sc.name, fmt_fix(m.sequential_seconds * 1e3, 2)};
    for (std::size_t wi = 0; wi < widths.size(); ++wi) {
      report.metric(key + "panel_ms_w" + std::to_string(widths[wi]), m.panel_seconds[wi] * 1e3);
      row.push_back(fmt_fix(m.panel_seconds[wi] * 1e3, 2) + " (" + fmt_fix(m.speedup[wi], 2) +
                    "x)");
      if (widths[wi] == 8) acceptance.push_back(m.speedup[wi]);
    }
    row.push_back(fmt_sci(m.worst_diff));
    table.add_row(row);
    exact = exact && m.worst_diff < 1e-9;
  }
  std::printf("ms per rhs, median of %d rounds (median of the rounds' speedups)\n",
              batch_rounds);
  table.print(std::cout);
  std::printf("\n");
  report.metric("exact", exact ? 1.0 : 0.0);

  // Lane-count table: rows are lane counts, columns scenario.tier; each
  // cell is the sweep time and its ratio to the compiled sweeps it pads to.
  std::vector<std::string> lane_header = {"lanes"};
  for (const auto& col : lane_columns) lane_header.push_back(col.name);
  TextTable lane_table(lane_header);
  double worst_ratio = 0.0;
  for (std::size_t bi = 0; bi < lane_counts.size(); ++bi) {
    std::vector<std::string> row = {std::to_string(lane_counts[bi])};
    for (const auto& col : lane_columns) {
      report.metric(col.name + ".lane_ms_b" + std::to_string(lane_counts[bi]),
                    col.seconds[bi] * 1e3);
      row.push_back(fmt_fix(col.seconds[bi] * 1e3, 3) + " (" + fmt_fix(col.ratio[bi], 2) + ")");
      worst_ratio = std::fmax(worst_ratio, col.ratio[bi]);
    }
    lane_table.add_row(row);
  }
  std::printf("ms per sweep by lane count, best of %d rounds (median ratio to the compiled "
              "sweeps it pads to)\n",
              rounds);
  lane_table.print(std::cout);
  std::printf("\n");
  report.metric("worst_lane_ratio", worst_ratio);

  if (smoke) {
    std::printf("smoke mode: kernels exercised, acceptance not evaluated (diff %s)\n",
                exact ? "ok" : "ABOVE TOLERANCE");
    report.write();
    return exact ? 0 : 1;
  }

  bool fast = acceptance.size() == std::size(scenarios);
  std::printf("acceptance: panel width 8 >= 2x sequential replay on every workload\n");
  for (std::size_t i = 0; i < acceptance.size(); ++i) {
    std::printf("  %s: %.2fx -> %s\n", scenarios[i].name, acceptance[i],
                acceptance[i] >= 2.0 ? "PASS" : "FAIL");
    report.metric(std::string(scenarios[i].name) + ".speedup_w8", acceptance[i]);
    fast = fast && acceptance[i] >= 2.0;
  }
  std::printf("acceptance: every B-lane sweep <= 1.15x the compiled sweeps it pads to\n");
  std::printf("  worst %.2fx -> %s\n", worst_ratio, worst_ratio <= 1.15 ? "PASS" : "FAIL");
  if (!exact) std::printf("WARNING: direction mismatch above 1e-9\n");
  const bool pass = exact && fast && worst_ratio <= 1.15;
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
