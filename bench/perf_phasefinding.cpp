// Microbenchmarks of the symmetric-QSP phase solver (google-benchmark):
// cost versus polynomial degree, using the actual inversion targets the
// linear solver generates. This is the classical "compilation" cost the
// paper's Section III-C2 assigns to the CPU.
//
// BM_PhaseFindingProductionTarget solves the targets prepare_qsvt_solver
// builds for the perf_e2e shapes (dense embedding, eps_l = 5e-2): n = 64,
// kappa = 20 (degree 281) and n = 128, kappa = 30 (degree 435). It reports
// the FPI and Newton iteration counts and the node residual beside the
// time, so a change to the solver shows whether it moved the work or the
// convergence.
//
// BM_JacobiSvd and BM_DenseEmbedding time the classical steps of the same
// prepare chain at those sizes: the one SVD of A, and the encoding of A^T
// from A's factors, swapped, as prepare_qsvt_solver builds it.
#include <benchmark/benchmark.h>

#include "blockenc/dense_embedding.hpp"
#include "common/rng.hpp"
#include "linalg/blas.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/random_matrix.hpp"
#include "poly/inverse_poly.hpp"
#include "qsp/symmetric_qsp.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;

void BM_PhaseFindingInverseTarget(benchmark::State& state) {
  const double kappa = static_cast<double>(state.range(0));
  const auto inv = poly::inverse_poly_interpolated(kappa, 1e-2);
  const double scale = (inv.max_abs > 0.9) ? 0.9 / inv.max_abs : 1.0;
  const auto target = inv.series.scaled(scale).parity_projected(poly::Parity::kOdd);
  for (auto _ : state) {
    const auto res = qsp::solve_symmetric_qsp(target);
    benchmark::DoNotOptimize(res.residual);
  }
  state.counters["degree"] = target.degree();
}
BENCHMARK(BM_PhaseFindingInverseTarget)->Arg(2)->Arg(5)->Arg(10)->Arg(20)
    ->Unit(benchmark::kMillisecond);

void BM_PhaseFindingProductionTarget(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const double kappa = static_cast<double>(state.range(1));
  Xoshiro256 rng(1);
  qsvt::QsvtOptions options;
  options.backend = qsvt::Backend::kMatrixFunction;  // the target without the phases
  options.eps_l = 5e-2;
  const auto target =
      qsvt::prepare_qsvt_solver(linalg::random_with_cond(rng, n, kappa), options).target;
  qsp::SymQspResult res;
  for (auto _ : state) {
    res = qsp::solve_symmetric_qsp(target);
    // The whole result: gcc's register form of DoNotOptimize on a lone
    // double can hand back a clobbered value, and the counters read it.
    benchmark::DoNotOptimize(res);
  }
  state.counters["degree"] = target.degree();
  state.counters["fpi_iterations"] = res.fpi_iterations;
  state.counters["newton_iterations"] = res.newton_iterations;
  state.counters["residual"] = res.residual;
}
BENCHMARK(BM_PhaseFindingProductionTarget)->Args({64, 20})->Args({128, 30})
    ->Unit(benchmark::kMillisecond);

linalg::Matrix<double> production_matrix(std::size_t n) {
  Xoshiro256 rng(1);
  return linalg::random_with_cond(rng, n, n == 64 ? 20.0 : 30.0);
}

void BM_JacobiSvd(benchmark::State& state) {
  const auto A = production_matrix(static_cast<std::size_t>(state.range(0)));
  linalg::Svd svd;
  for (auto _ : state) {
    svd = linalg::jacobi_svd(A);
    benchmark::DoNotOptimize(svd);
  }
  state.counters["sweeps"] = svd.sweeps;
}
BENCHMARK(BM_JacobiSvd)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_DenseEmbedding(benchmark::State& state) {
  const auto A = production_matrix(static_cast<std::size_t>(state.range(0)));
  const auto svd = linalg::jacobi_svd(A);
  linalg::Svd transposed;
  transposed.U = svd.V;
  transposed.V = svd.U;
  transposed.sigma = svd.sigma;
  const auto At = linalg::transpose(A);
  for (auto _ : state) {
    auto be = blockenc::dense_embedding(At, transposed);
    benchmark::DoNotOptimize(be);
  }
}
BENCHMARK(BM_DenseEmbedding)->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);

void BM_ResponseEvaluation(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::vector<double> phases(d + 1, 0.01);
  phases.front() = phases.back() = M_PI / 4;
  for (auto _ : state) {
    benchmark::DoNotOptimize(qsp::qsp_response(phases, 0.5));
  }
  state.SetItemsProcessed(state.iterations() * d);
}
BENCHMARK(BM_ResponseEvaluation)->Arg(100)->Arg(1000)->Arg(10000);

void BM_ChebCoefficientExtraction(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  std::vector<double> phases(d + 1, 0.01);
  phases.front() = phases.back() = M_PI / 4;
  for (auto _ : state) {
    const auto coeffs = qsp::response_cheb_coeffs(phases, d);
    benchmark::DoNotOptimize(coeffs[0]);
  }
}
BENCHMARK(BM_ChebCoefficientExtraction)->Arg(100)->Arg(500)->Arg(2000)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
