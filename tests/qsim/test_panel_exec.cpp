// Panel execution vs the gate interpreter: replaying one compiled program
// over a StatePanel must reproduce, lane by lane, what gate-by-gate
// interpretation does to the same initial states. Covered: one-lane
// panels (the single-RHS path, with its own dense kernel), compiled and
// padded (ragged, wider than 16) lane widths, all three storage tiers,
// fused windows up to 5 qubits, a dense-embedding QSVT program (whose
// block-encoding unitary is one 5-target dense op), lane results bitwise
// independent of the panel width (with real and complex dense ops), the
// real dense kernels against the complex ones on the same matrices, and
// the panel-wide reductions (norms, postselection) against their
// Statevector counterparts.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <type_traits>
#include <vector>

#include "../support/exec_fixtures.hpp"
#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/statevector.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;
using test::random_circuit;
using test::random_state;

constexpr std::size_t kLaneCounts[] = {1, 3, 8};

// Agreement bounds against the double-precision interpreter. f16 storage
// rounds every stored amplitude to 11 significant bits (~5e-4 relative)
// after each op; its worst case here is ~2e-3. The solver runs no f16
// tier: the f16 cases below cover the executor bench/e2e/probes.hpp still
// replays, and go with it.
template <typename T>
constexpr double tolerance() {
  if constexpr (std::is_same_v<T, double>) return 1e-11;
  if constexpr (std::is_same_v<T, float>) return 1e-3;
  return 1e-2;
}

// Relative bound between the real and the complex kernel on one program
// (rounding differences only, a few ulps per dense op).
template <typename T>
constexpr double real_kernel_tolerance() {
  if constexpr (std::is_same_v<T, double>) return 1e-12;
  return 1e-4;
}

// Replay `program` over `lanes` random states as one panel, and interpret
// `circuit` gate by gate on each state; return the worst per-lane
// per-amplitude deviation.
template <typename T>
double panel_vs_interpreter(Xoshiro256& rng, const qsim::Circuit& circuit,
                            const qsim::exec::Program<T>& program, std::uint32_t width,
                            std::size_t lanes) {
  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t l = 0; l < lanes; ++l) states.push_back(random_state(rng, width));

  qsim::exec::StatePanel<T> panel(width, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < states[l].size(); ++i) {
      panel.set_amp(i, l, states[l][i]);
      // The reference starts from the stored (storage-rounded) state.
      states[l][i] = panel.amp(i, l);
    }
  }
  qsim::exec::PanelExecutor<T>().run(program, panel);

  double worst = 0.0;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto sv = qsim::Statevector<double>::from_amplitudes(width, states[l]);
    sv.apply(circuit);
    for (std::size_t i = 0; i < sv.dim(); ++i) {
      worst = std::max(worst, std::abs(panel.amp(i, l) - sv[i]));
    }
  }
  return worst;
}

template <typename T>
void random_circuits_match_interpreter(std::uint64_t seed) {
  Xoshiro256 rng(seed);
  qsim::exec::CompileOptions options;
  options.max_fuse_qubits = 5;
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 40);
    const auto program = qsim::exec::compile<T>(c, options);
    for (const std::size_t lanes : kLaneCounts) {
      EXPECT_LT(panel_vs_interpreter<T>(rng, c, program, n, lanes), tolerance<T>())
          << "trial " << trial << " n=" << n << " lanes=" << lanes;
    }
  }
}

TEST(PanelExec, RandomCircuitsMatchInterpreterDouble) {
  random_circuits_match_interpreter<double>(71);
}

TEST(PanelExec, RandomCircuitsMatchInterpreterFloat) {
  random_circuits_match_interpreter<float>(72);
}

TEST(PanelExec, RandomCircuitsMatchInterpreterHalf) {
  random_circuits_match_interpreter<qsim::exec::f16>(73);
}

TEST(PanelExec, WideFusedWindowsReachTheDenseKernels) {
  // The agreement above only covers the wide dense path if fusion really
  // emits windows beyond the 3-qubit specializations.
  Xoshiro256 rng(71);
  qsim::exec::CompileOptions options;
  options.max_fuse_qubits = 5;
  const auto ir = qsim::exec::lower_and_fuse(random_circuit(rng, 6, 40), options);
  EXPECT_GT(ir.stats.max_fused_span, 3u);
}

template <typename T>
void qsvt_program_matches_interpreter() {
  Xoshiro256 rng(74);
  qsvt::QsvtOptions options;
  options.eps_l = 5e-2;
  const auto ctx = qsvt::prepare_qsvt_solver(linalg::random_with_cond(rng, 16, 5.0), options);
  const auto& circuit = ctx.circuit->circuit;
  std::uint32_t widest = 0;
  for (const auto& op : ctx.programs->ir().ops) {
    if (op.kind == qsim::exec::OpKind::kDense) {
      widest = std::max(widest, static_cast<std::uint32_t>(op.targets.size()));
    }
  }
  EXPECT_GE(widest, 5u) << "the block-encoding unitary should be one wide dense op";
  for (const std::size_t lanes : kLaneCounts) {
    EXPECT_LT(panel_vs_interpreter<T>(rng, circuit, ctx.programs->get<T>(),
                                      circuit.num_qubits(), lanes),
              tolerance<T>())
        << "lanes=" << lanes;
  }
}

TEST(PanelExec, DenseEmbeddingQsvtProgramMatchesInterpreterDouble) {
  qsvt_program_matches_interpreter<double>();
}

TEST(PanelExec, DenseEmbeddingQsvtProgramMatchesInterpreterFloat) {
  qsvt_program_matches_interpreter<float>();
}

TEST(PanelExec, DenseEmbeddingQsvtProgramMatchesInterpreterHalf) {
  qsvt_program_matches_interpreter<qsim::exec::f16>();
}

TEST(PanelExec, RaggedLaneCounts) {
  // Lane counts with no compiled kernel (the tail panel of a ragged batch,
  // lanes left after refinement drops converged ones, more than 16 lanes)
  // replay in padded chunks; the pad lanes must never leak into a result.
  Xoshiro256 rng(75);
  const auto c = random_circuit(rng, 5, 40);
  const auto program = qsim::exec::compile<double>(c);
  for (const std::size_t lanes : {5u, 7u, 11u, 17u, 24u, 33u}) {
    EXPECT_LT(panel_vs_interpreter<double>(rng, c, program, 5, lanes), 1e-11)
        << "lanes=" << lanes;
  }
}

// Replay one panel whose lane l holds states[pick[l]].
template <typename T>
qsim::exec::StatePanel<T> replay_states(
    const qsim::exec::Program<T>& program,
    const std::vector<std::vector<std::complex<double>>>& states, std::uint32_t width,
    const std::vector<std::size_t>& pick) {
  qsim::exec::StatePanel<T> panel(width, pick.size());
  for (std::size_t l = 0; l < pick.size(); ++l) {
    for (std::size_t i = 0; i < panel.dim(); ++i) panel.set_amp(i, l, states[pick[l]][i]);
  }
  qsim::exec::PanelExecutor<T>().run(program, panel);
  return panel;
}

template <typename T>
std::size_t real_dense_ops(const qsim::exec::Program<T>& program) {
  std::size_t real = 0;
  for (const auto& op : program.ops) {
    real += op.kind == qsim::exec::OpKind::kDense && op.payload_im.empty();
  }
  return real;
}

template <typename T>
void lane_results_independent_of_width(const qsim::exec::Program<T>& program,
                                       std::uint32_t width, Xoshiro256& rng) {
  constexpr std::size_t kStates = 33;
  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t s = 0; s < kStates; ++s) states.push_back(random_state(rng, width));

  // Reference: every state replayed in a full 16-lane panel.
  std::vector<qsim::exec::StatePanel<T>> full;
  for (std::size_t first = 0; first < kStates; first += 16) {
    std::vector<std::size_t> pick;
    for (std::size_t l = 0; l < 16; ++l) pick.push_back(std::min(first + l, kStates - 1));
    full.push_back(replay_states(program, states, width, pick));
  }
  const auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  for (const std::size_t lanes : {2u, 3u, 5u, 7u, 9u, 12u, 15u, 17u, 24u, 33u}) {
    std::vector<std::size_t> pick(lanes);
    for (std::size_t l = 0; l < lanes; ++l) pick[l] = l;
    const auto panel = replay_states(program, states, width, pick);
    for (std::size_t l = 0; l < lanes; ++l) {
      std::size_t mismatches = 0;
      for (std::size_t i = 0; i < panel.dim(); ++i) {
        const auto got = panel.amp(i, l), want = full[l / 16].amp(i, l % 16);
        mismatches += bits(got.real()) != bits(want.real()) || bits(got.imag()) != bits(want.imag());
      }
      EXPECT_EQ(mismatches, 0u) << "lanes=" << lanes << " lane " << l;
    }
  }
}

template <typename T>
void lane_results_independent_of_width() {
  // A dense-embedding QSVT program, whose block encoding is real, and a
  // program mixing real and complex dense ops.
  Xoshiro256 rng(79);
  qsvt::QsvtOptions options;
  options.eps_l = 5e-2;
  const auto ctx = qsvt::prepare_qsvt_solver(linalg::random_with_cond(rng, 16, 5.0), options);
  const auto& program = ctx.programs->get<T>();
  EXPECT_GT(real_dense_ops(program), 0u);
  lane_results_independent_of_width(program, ctx.circuit->circuit.num_qubits(), rng);

  const auto mixed = qsim::exec::compile<T>(test::mixed_real_complex(rng));
  EXPECT_EQ(real_dense_ops(mixed), 4u);
  lane_results_independent_of_width(mixed, mixed.num_qubits, rng);
}

TEST(PanelExec, LaneResultsAreBitwiseIndependentOfPanelWidth) {
  // Every width replays each lane with the same arithmetic as a 16-lane
  // panel, in the real and the complex dense kernel alike: the solvers'
  // batch-vs-batch parity rests on this.
  lane_results_independent_of_width<double>();
  lane_results_independent_of_width<float>();
  lane_results_independent_of_width<qsim::exec::f16>();
}

/// `program` with the zero imaginary plane put back on every real dense
/// op, so that the complex kernels replay it.
template <typename T>
qsim::exec::Program<T> with_imaginary_planes(qsim::exec::Program<T> program) {
  for (auto& op : program.ops) {
    if (op.kind == qsim::exec::OpKind::kDense && op.payload_im.empty()) {
      op.payload_im = std::vector<qsim::exec::exec_compute_t<T>>(op.payload_re.size());
    }
  }
  return program;
}

template <typename T>
void real_kernel_agrees_with_complex_kernel(const qsim::exec::Program<T>& program,
                                            std::uint32_t width, Xoshiro256& rng) {
  ASSERT_GT(real_dense_ops(program), 0u);
  const auto complex = with_imaginary_planes(program);
  ASSERT_EQ(real_dense_ops(complex), 0u);
  for (std::size_t lanes = 1; lanes <= 16; ++lanes) {
    std::vector<std::vector<std::complex<double>>> states;
    std::vector<std::size_t> pick;
    for (std::size_t l = 0; l < lanes; ++l) {
      states.push_back(random_state(rng, width));
      pick.push_back(l);
    }
    const auto got = replay_states(program, states, width, pick);
    const auto want = replay_states(complex, states, width, pick);
    double worst = 0.0, scale = 0.0;
    for (std::size_t l = 0; l < lanes; ++l) {
      for (std::size_t i = 0; i < got.dim(); ++i) {
        worst = std::max(worst, std::abs(got.amp(i, l) - want.amp(i, l)));
        scale = std::max(scale, std::abs(want.amp(i, l)));
      }
    }
    EXPECT_LT(worst, real_kernel_tolerance<T>() * scale) << "lanes=" << lanes;
  }
}

template <typename T>
void real_kernel_agrees_with_complex_kernel() {
  Xoshiro256 rng(80);
  qsvt::QsvtOptions options;
  options.eps_l = 5e-2;
  const auto ctx = qsvt::prepare_qsvt_solver(linalg::random_with_cond(rng, 16, 5.0), options);
  real_kernel_agrees_with_complex_kernel(ctx.programs->get<T>(), ctx.circuit->circuit.num_qubits(),
                                         rng);
  const auto mixed = qsim::exec::compile<T>(test::mixed_real_complex(rng));
  real_kernel_agrees_with_complex_kernel(mixed, mixed.num_qubits, rng);
}

TEST(PanelExec, RealKernelAgreesWithComplexKernel) {
  // The real kernels skip the zero imaginary plane and so round
  // differently (FMA contraction), never by more than a few ulps per op.
  real_kernel_agrees_with_complex_kernel<double>();
  real_kernel_agrees_with_complex_kernel<float>();
}

TEST(PanelExec, ProgramNarrowerThanPanelRegister) {
  Xoshiro256 rng(76);
  const auto c = random_circuit(rng, 3, 25);
  const auto program = qsim::exec::compile<double>(c);
  for (const std::size_t lanes : kLaneCounts) {
    EXPECT_LT(panel_vs_interpreter<double>(rng, c, program, /*width=*/6, lanes), 1e-11)
        << "lanes=" << lanes;
  }
}

TEST(PanelExec, LoadLaneRealEmbedsTheVector) {
  qsim::exec::StatePanel<double> panel(3, 3);
  const std::vector<double> v = {0.5, -0.5, 0.5, -0.5};  // length 4 < dim 8
  panel.load_lane_real(1, v);
  for (std::size_t i = 0; i < panel.dim(); ++i) {
    const auto a = panel.amp(i, 1);
    EXPECT_EQ(a.real(), i < v.size() ? v[i] : 0.0);
    EXPECT_EQ(a.imag(), 0.0);
  }
  // Other lanes stay |0…0>.
  EXPECT_EQ(panel.amp(0, 0).real(), 1.0);
  EXPECT_EQ(panel.amp(0, 2).real(), 1.0);
}

TEST(PanelExec, ReductionsMatchStatevector) {
  Xoshiro256 rng(77);
  const std::uint32_t n = 5;
  const std::size_t lanes = 6;
  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t l = 0; l < lanes; ++l) states.push_back(random_state(rng, n));
  // Scale lanes differently so per-lane norms are distinguishable.
  for (std::size_t l = 0; l < lanes; ++l) {
    for (auto& a : states[l]) a *= 1.0 + 0.25 * static_cast<double>(l);
  }

  qsim::exec::StatePanel<double> panel(n, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < states[l].size(); ++i) panel.set_amp(i, l, states[l][i]);
  }

  const auto norms = panel.lane_norms();
  const std::vector<std::uint32_t> zeros = {1, 3};
  const auto p_zero = panel.probability_all_zero(zeros);
  for (std::size_t l = 0; l < lanes; ++l) {
    const auto sv = qsim::Statevector<double>::from_amplitudes(n, states[l]);
    EXPECT_NEAR(norms[l], sv.norm(), 1e-13) << "lane " << l;
    EXPECT_NEAR(p_zero[l], sv.probability_all_zero(zeros), 1e-13) << "lane " << l;
  }
}

TEST(PanelExec, PostselectMatchesStatevectorFlipPath) {
  // The interpreter path X-flips the "must be one" qubit and then
  // postselects everything to zero; the panel projects on zeros+ones
  // directly. Same projector: probabilities and surviving amplitudes
  // must agree.
  Xoshiro256 rng(78);
  const std::uint32_t n = 5;
  const std::size_t lanes = 4;
  const std::vector<std::uint32_t> zeros = {2, 4};
  const std::uint32_t one_qubit = 3;

  std::vector<std::vector<std::complex<double>>> states;
  for (std::size_t l = 0; l < lanes; ++l) states.push_back(random_state(rng, n));

  qsim::exec::StatePanel<double> panel(n, lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    for (std::size_t i = 0; i < states[l].size(); ++i) panel.set_amp(i, l, states[l][i]);
  }
  const auto probs = panel.postselect(zeros, {one_qubit});

  const std::uint64_t one_bit = std::uint64_t{1} << one_qubit;
  for (std::size_t l = 0; l < lanes; ++l) {
    auto sv = qsim::Statevector<double>::from_amplitudes(n, states[l]);
    qsim::Circuit flip(n);
    flip.x(one_qubit);
    sv.apply(flip);
    auto all_zeros = zeros;
    all_zeros.push_back(one_qubit);
    const double p = sv.postselect_zero(all_zeros);
    EXPECT_NEAR(probs[l], p, 1e-13) << "lane " << l;
    for (std::size_t i = 0; i < sv.dim(); ++i) {
      if ((i & one_bit) != 0) continue;  // survivors live at one_bit = 0 post-flip
      const auto got = panel.amp(i | one_bit, l);
      const auto want = std::complex<double>(sv[i].real(), sv[i].imag());
      EXPECT_NEAR(std::abs(got - want), 0.0, 1e-12) << "lane " << l << " index " << i;
    }
  }
}

}  // namespace
