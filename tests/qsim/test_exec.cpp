// Fusion-correctness tests for the execution engine: randomized circuits
// (controls, negative controls, adjoints, diagonal and dense multi-qubit
// payloads, global phases, swaps) compiled and replayed on a one-lane
// panel must agree with gate-by-gate interpretation within precision
// tolerance, in both float and double. Also: every application of one
// unitary gate shares one matrix from lowering through each tier's
// program, bitwise like unshared copies; an adjoint application shares
// its matrix by a flag and rounds to the planes of the explicit conjugate
// transpose; a prepared dense-embedding context holds two dense arrays;
// real dense matrices keep no imaginary plane; dense ops on one target
// set share one offset table.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <set>
#include <utility>
#include <vector>

#include "../support/exec_fixtures.hpp"
#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/statevector.hpp"
#include "qsvt/solve.hpp"

namespace {

using namespace mpqls;
using test::random_circuit;
using test::replay_one_lane;

// Spread amplitude over every basis state so controlled branches are all
// exercised, then compare compiled vs interpreted execution.
template <typename T>
double compiled_vs_interpreted(const qsim::Circuit& c, std::uint32_t width,
                               const qsim::exec::CompileOptions& options) {
  qsim::Statevector<T> interpreted(width);
  qsim::Circuit spread(width);
  for (std::uint32_t q = 0; q < width; ++q) spread.h(q).rz(q, 0.37 * (q + 1));
  interpreted.apply(spread);
  qsim::Statevector<T> compiled = interpreted;

  interpreted.apply(c);
  replay_one_lane(qsim::exec::compile<T>(c, options), compiled);

  double worst = 0.0;
  for (std::size_t i = 0; i < interpreted.dim(); ++i) {
    worst = std::max(worst, std::abs(std::complex<double>(
                                compiled[i].real() - interpreted[i].real(),
                                compiled[i].imag() - interpreted[i].imag())));
  }
  return worst;
}

TEST(Exec, RandomizedFusionEquivalenceDouble) {
  Xoshiro256 rng(42);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 40);
    EXPECT_LT(compiled_vs_interpreted<double>(c, n, {}), 1e-11)
        << "trial " << trial << " n=" << n;
  }
}

TEST(Exec, RandomizedFusionEquivalenceFloat) {
  Xoshiro256 rng(43);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 40);
    EXPECT_LT(compiled_vs_interpreted<float>(c, n, {}), 1e-3)
        << "trial " << trial << " n=" << n;
  }
}

TEST(Exec, RandomizedEquivalenceWithoutFusion) {
  // fuse=false exercises the specialized kernels alone (one op per gate).
  Xoshiro256 rng(44);
  qsim::exec::CompileOptions options;
  options.fuse = false;
  for (int trial = 0; trial < 30; ++trial) {
    const auto n = static_cast<std::uint32_t>(1 + rng.uniform_index(6));
    const auto c = random_circuit(rng, n, 30);
    EXPECT_LT(compiled_vs_interpreted<double>(c, n, options), 1e-11) << "trial " << trial;
  }
}

TEST(Exec, WiderFusionWindows) {
  Xoshiro256 rng(45);
  qsim::exec::CompileOptions options;
  options.max_fuse_qubits = 5;
  for (int trial = 0; trial < 20; ++trial) {
    const auto c = random_circuit(rng, 6, 40);
    EXPECT_LT(compiled_vs_interpreted<double>(c, 6, options), 1e-11) << "trial " << trial;
  }
}

TEST(Exec, ProgramNarrowerThanRegister) {
  Xoshiro256 rng(46);
  const auto c = random_circuit(rng, 3, 25);
  EXPECT_LT(compiled_vs_interpreted<double>(c, /*width=*/6, {}), 1e-11);
}

TEST(Exec, SingleQubitRunFusesToOneOp) {
  qsim::Circuit c(2);
  c.h(0).t(0).rz(0, 0.3).s(0).x(0);
  const auto ir = qsim::exec::lower_and_fuse(c);
  ASSERT_EQ(ir.ops.size(), 1u);
  EXPECT_EQ(ir.stats.source_gates, 5u);
  EXPECT_EQ(ir.stats.fused_gates, 4u);
  EXPECT_EQ(ir.stats.depth, 1u);
}

TEST(Exec, FusionRespectsWindowLimit) {
  Xoshiro256 rng(47);
  qsim::exec::CompileOptions options;
  options.max_fuse_qubits = 2;
  const auto c = random_circuit(rng, 6, 60);
  const auto ir = qsim::exec::lower_and_fuse(c, options);
  EXPECT_LE(ir.stats.max_fused_span, 2u);
  EXPECT_EQ(ir.stats.source_gates, c.size());
  EXPECT_EQ(ir.stats.ops, ir.ops.size());
}

TEST(Exec, CompileStampsTelemetry) {
  qsim::Circuit c(3);
  for (int i = 0; i < 10; ++i) c.h(0).cx(0, 1).rz(2, 0.1 * i);
  const auto program = qsim::exec::compile<double>(c);
  EXPECT_EQ(program.stats.source_gates, 30u);
  EXPECT_GT(program.stats.ops, 0u);
  EXPECT_LT(program.stats.ops, 30u);  // fusion must actually fuse here
  EXPECT_GE(program.stats.compile_seconds, 0.0);
  EXPECT_GT(program.stats.depth, 0u);
}

/// Replay `program` on a two-lane panel of fixed random states.
template <typename T>
qsim::exec::StatePanel<T> replay_two_lanes(const qsim::exec::Program<T>& program) {
  Xoshiro256 rng(7);
  qsim::exec::StatePanel<T> panel(program.num_qubits, 2);
  for (std::size_t l = 0; l < 2; ++l) {
    const auto amps = test::random_state(rng, program.num_qubits);
    for (std::size_t i = 0; i < amps.size(); ++i) panel.set_amp(i, l, amps[i]);
  }
  qsim::exec::PanelExecutor<T>().run(program, panel);
  return panel;
}

template <typename T>
void expect_bitwise_equal(const qsim::exec::StatePanel<T>& got,
                          const qsim::exec::StatePanel<T>& want) {
  for (std::size_t i = 0; i < want.dim(); ++i) {
    for (std::size_t l = 0; l < 2; ++l) {
      EXPECT_EQ(got.amp(i, l).real(), want.amp(i, l).real()) << "amp " << i << " lane " << l;
      EXPECT_EQ(got.amp(i, l).imag(), want.amp(i, l).imag()) << "amp " << i << " lane " << l;
    }
  }
}

template <typename T>
void expect_one_plane_pair_per_matrix(const qsim::exec::Program<T>& program) {
  using Op = qsim::exec::CompiledOp<T>;
  EXPECT_EQ(test::distinct_dense_arrays(program.ops, &Op::payload_re).size(), 2u);
  EXPECT_EQ(test::distinct_dense_arrays(program.ops, &Op::payload_im).size(), 2u);
  for (const auto& op : program.ops) {
    if (op.kind == qsim::exec::OpKind::kDense) {
      EXPECT_TRUE(op.payload.empty());
    }
  }
}

TEST(Exec, RepeatedUnitarySharesOneMatrixThroughEveryTier) {
  // U, U-dagger, U, ... six times on 4 of 5 qubits (wider than the fusion
  // window, so each application lowers to its own dense op). Lowering
  // interns one (matrix, targets) key, U-dagger as a flag on U's array;
  // each tier rounds U and U-dagger once each and keeps only the split
  // planes.
  Xoshiro256 rng(48);
  const auto u = test::random_unitary(rng, 16);
  const std::vector<std::uint32_t> targets = {3, 0, 4, 1};  // unsorted: remapped once
  const auto shared = test::alternating_unitary(5, targets, u, 2, 6, true);
  const auto separate = test::alternating_unitary(5, targets, u, 2, 6, false);

  const auto ir = qsim::exec::lower_and_fuse(shared);
  const auto ir_separate = qsim::exec::lower_and_fuse(separate);
  std::size_t dense = 0;
  for (const auto& op : ir.ops) dense += op.kind == qsim::exec::OpKind::kDense;
  EXPECT_EQ(dense, 6u);
  EXPECT_EQ(test::distinct_dense_arrays(ir.ops, &qsim::exec::FusedOp::payload).size(), 1u);
  EXPECT_EQ(test::distinct_dense_arrays(ir_separate.ops, &qsim::exec::FusedOp::payload).size(),
            6u);

  const auto f32 = qsim::exec::specialize<float>(ir);
  const auto f64 = qsim::exec::specialize<double>(ir);
  expect_one_plane_pair_per_matrix(f32);
  expect_one_plane_pair_per_matrix(f64);

  // Sharing changes no value: the replay is bitwise the unshared one.
  expect_bitwise_equal(replay_two_lanes(f32),
                       replay_two_lanes(qsim::exec::specialize<float>(ir_separate)));
  expect_bitwise_equal(replay_two_lanes(f64),
                       replay_two_lanes(qsim::exec::specialize<double>(ir_separate)));
}

linalg::Matrix<qsim::c64> conj_transpose(const linalg::Matrix<qsim::c64>& u) {
  linalg::Matrix<qsim::c64> out(u.cols(), u.rows());
  for (std::size_t r = 0; r < u.rows(); ++r) {
    for (std::size_t c = 0; c < u.cols(); ++c) out(c, r) = std::conj(u(r, c));
  }
  return out;
}

/// The one dense op of `program`.
template <typename T>
const qsim::exec::CompiledOp<T>& only_dense_op(const qsim::exec::Program<T>& program) {
  const qsim::exec::CompiledOp<T>* found = nullptr;
  for (const auto& op : program.ops) {
    if (op.kind != qsim::exec::OpKind::kDense) continue;
    EXPECT_EQ(found, nullptr) << "more than one dense op";
    found = &op;
  }
  EXPECT_NE(found, nullptr);
  return *found;
}

template <typename T>
void expect_equal_arrays(const qsim::exec::SharedArray<T>& got,
                         const qsim::exec::SharedArray<T>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << "entry " << i;
}

template <typename T>
void adjoint_planes_are_the_explicit_planes() {
  Xoshiro256 rng(91);
  const auto u = test::random_unitary(rng, 16);
  for (const std::vector<std::uint32_t>& targets :
       {std::vector<std::uint32_t>{0, 1, 3, 4}, std::vector<std::uint32_t>{3, 0, 4, 1}}) {
    qsim::Circuit applied(5);
    applied.unitary(targets, u);
    const auto flagged_ir = qsim::exec::lower_and_fuse(applied.dagger());
    ASSERT_EQ(flagged_ir.ops.size(), 1u);
    EXPECT_TRUE(flagged_ir.ops[0].adjoint);
    qsim::Circuit explicit_dagger(5);
    explicit_dagger.unitary(targets, conj_transpose(u));
    const auto explicit_ir = qsim::exec::lower_and_fuse(explicit_dagger);
    EXPECT_FALSE(explicit_ir.ops[0].adjoint);

    const auto got_program = qsim::exec::specialize<T>(flagged_ir);
    const auto want_program = qsim::exec::specialize<T>(explicit_ir);
    const auto& got = only_dense_op(got_program);
    const auto& want = only_dense_op(want_program);
    ASSERT_FALSE(want.payload_im.empty());
    expect_equal_arrays(got.payload_re, want.payload_re);
    expect_equal_arrays(got.payload_im, want.payload_im);
  }
}

TEST(Exec, AdjointPlanesEqualExplicitConjugateTransposePlanes) {
  // U-dagger shares U's array and carries a flag; rounding it to a tier
  // gives bit for bit the planes of a conjugate-transposed copy, on
  // sorted targets and on remapped ones.
  adjoint_planes_are_the_explicit_planes<float>();
  adjoint_planes_are_the_explicit_planes<double>();
}

TEST(Exec, AdjointOfComplexUnitaryReplaysLikeTheInterpreter) {
  // Complex U and U-dagger: wide (its own dense op, read through the
  // flag when specialized), controlled, and narrow enough to fuse into a
  // window with neighbouring gates (read through the flag when embedded).
  Xoshiro256 rng(92);
  const auto u4 = test::random_unitary(rng, 16);
  const auto u2 = test::random_unitary(rng, 4);
  qsim::Circuit wide(5);
  wide.unitary({0, 2, 3, 4}, u4);
  qsim::Circuit narrow(5);
  narrow.unitary({1, 0}, u2);
  qsim::Circuit c(5);
  c.append(wide).append(wide.dagger()).h(1);
  c.append(narrow.dagger()).s(0).append(narrow).append(narrow.dagger());
  c.append(wide.dagger().controlled({1}, {}));
  const auto ir = qsim::exec::lower_and_fuse(c);
  std::size_t flagged = 0;
  for (const auto& op : ir.ops) flagged += op.adjoint;
  EXPECT_EQ(flagged, 2u);  // the two wide daggers; the narrow ones fused
  EXPECT_LT(compiled_vs_interpreted<double>(c, 5, {}), 1e-11);
  EXPECT_LT(compiled_vs_interpreted<float>(c, 5, {}), 1e-4);
  EXPECT_LT(compiled_vs_interpreted<double>(c, 5, {.fuse = false}), 1e-11);
}

TEST(Exec, DenseEmbeddingIrHoldsTwoDenseArrays) {
  // A prepared dense-embedding context lowers its block encoding U by
  // reference and every U-dagger as a flag on the same array, so the IR
  // holds U and the one fused window, at both production sizes.
  for (const std::size_t n : {64, 128}) {
    Xoshiro256 rng(n);
    qsvt::QsvtOptions options;
    options.eps_l = 5e-2;
    const auto ctx = qsvt::prepare_qsvt_solver(linalg::random_with_cond(rng, n, 20.0), options);
    const auto& ops = ctx.programs->ir().ops;
    const auto arrays = test::distinct_dense_arrays(ops, &qsim::exec::FusedOp::payload);
    EXPECT_EQ(arrays.size(), 2u) << "n=" << n;
    EXPECT_EQ(arrays.count(ctx.be.circuit.gates().front().matrix->data()), 1u) << "n=" << n;
    std::size_t flagged = 0;
    for (const auto& op : ops) flagged += op.adjoint;
    EXPECT_GT(flagged, 0u) << "n=" << n;
  }
}

/// Every dense op of `ops`: real (no imaginary plane) iff it has
/// `real_targets` targets; a complex op keeps both full planes. Returns
/// the number of real and complex dense ops seen.
template <typename T>
std::pair<std::size_t, std::size_t> check_real_planes(
    const std::vector<qsim::exec::CompiledOp<T>>& ops, std::uint32_t real_targets) {
  std::size_t real = 0, complex = 0;
  for (const auto& op : ops) {
    if (op.kind != qsim::exec::OpKind::kDense) continue;
    if (op.num_targets == real_targets) {
      ++real;
      EXPECT_TRUE(op.payload_im.empty());
      EXPECT_FALSE(op.payload_re.empty());
    } else {
      ++complex;
      EXPECT_EQ(op.payload_im.size(), op.payload_re.size());
    }
  }
  return {real, complex};
}

template <typename T>
void real_planes_in_every_program() {
  // 4 applications of a real orthogonal U on 4 qubits, and one complex
  // fused 3-qubit window.
  Xoshiro256 rng(83);
  const auto ir = qsim::exec::lower_and_fuse(test::mixed_real_complex(rng));
  EXPECT_EQ(check_real_planes(qsim::exec::specialize<T>(ir).ops, 4),
            (std::pair<std::size_t, std::size_t>{4, 1}));
  // Rank programs of a 2-way split: U's top target is a partition qubit,
  // so U runs as each rank's exchange step, on the wide register.
  const auto plan = qsim::exec::dist::build_exchange_plan(ir, 1);
  for (std::uint32_t r = 0; r < 2; ++r) {
    std::size_t real = 0, complex = 0;
    for (const auto& step : qsim::exec::dist::specialize_rank<T>(plan, r).steps) {
      for (const auto* program : {&step.local, &step.wide}) {
        const auto [re, co] = check_real_planes(program->ops, 4);
        real += re;
        complex += co;
      }
    }
    EXPECT_EQ(real, 4u) << "rank " << r;
    EXPECT_EQ(complex, 1u) << "rank " << r;
  }
}

TEST(Exec, RealDenseOpsDropTheirImaginaryPlane) {
  // The data decides: a dense matrix whose imaginary parts are all zero
  // after rounding keeps only its real plane, on both tiers and in rank
  // programs; a complex window keeps both.
  real_planes_in_every_program<float>();
  real_planes_in_every_program<double>();
}

template <typename T>
void expect_one_offset_table_per_target_set(const std::vector<qsim::exec::CompiledOp<T>>& ops) {
  std::set<std::uint64_t> masks;
  for (const auto& op : ops) {
    if (op.kind == qsim::exec::OpKind::kDense) masks.insert(op.target_mask);
  }
  using Op = qsim::exec::CompiledOp<T>;
  EXPECT_EQ(test::distinct_dense_arrays(ops, &Op::offsets).size(), masks.size());
}

TEST(Exec, SortedUnitaryPayloadIsTheGateMatrix) {
  // A unitary already on ascending targets lowers to the gate's own matrix
  // by reference, adjoint applications included, so a prepared context
  // holds one copy of its block encoding. The IR keeps the matrix alive
  // after the circuit is gone, and sharing changes no value.
  Xoshiro256 rng(49);
  const auto u = test::random_unitary(rng, 16);
  const std::vector<std::uint32_t> targets = {0, 1, 3, 4};
  const auto ir_separate =
      qsim::exec::lower_and_fuse(test::alternating_unitary(5, targets, u, 2, 6, false));
  qsim::exec::FusedIr ir;
  {
    const auto c = test::alternating_unitary(5, targets, u, 2, 6, true);
    ir = qsim::exec::lower_and_fuse(c);
    const auto arrays = test::distinct_dense_arrays(ir.ops, &qsim::exec::FusedOp::payload);
    EXPECT_EQ(arrays.size(), 1u);
    EXPECT_EQ(arrays.count(c.gates().front().matrix->data()), 1u);
  }
  expect_bitwise_equal(replay_two_lanes(qsim::exec::specialize<double>(ir)),
                       replay_two_lanes(qsim::exec::specialize<double>(ir_separate)));
}

TEST(Exec, DenseOpsShareOffsetTables) {
  // Six applications of U on one target set plus one fused window: two
  // gather-offset tables per program, however many ops use them.
  Xoshiro256 rng(84);
  const auto u = test::random_unitary(rng, 16);
  auto c = test::alternating_unitary(5, {3, 0, 4, 1}, u, 2, 6, true);
  c.h(0).s(1).cx(0, 1).h(1);
  const auto ir = qsim::exec::lower_and_fuse(c);
  const auto f32 = qsim::exec::specialize<float>(ir);
  const auto f64 = qsim::exec::specialize<double>(ir);
  using Op32 = qsim::exec::CompiledOp<float>;
  EXPECT_EQ(test::distinct_dense_arrays(f32.ops, &Op32::offsets).size(), 2u);
  expect_one_offset_table_per_target_set(f64.ops);
  const auto plan = qsim::exec::dist::build_exchange_plan(ir, 1);
  for (std::uint32_t r = 0; r < 2; ++r) {
    std::vector<Op32> ops;
    for (const auto& step : qsim::exec::dist::specialize_rank<float>(plan, r).steps) {
      ops.insert(ops.end(), step.local.ops.begin(), step.local.ops.end());
      ops.insert(ops.end(), step.wide.ops.begin(), step.wide.ops.end());
    }
    expect_one_offset_table_per_target_set(ops);
  }
}

TEST(Exec, ControlledGlobalPhaseLowering) {
  // e^{i theta} on the subspace where q0=1, q2=0. The interpreter cannot
  // run this raw gate (it ignores controls on kGlobalPhase), so compare
  // the compiled execution against the explicit phase-gate equivalent.
  qsim::Gate g;
  g.kind = qsim::GateKind::kGlobalPhase;
  g.param = 0.7;
  g.controls = {0};
  g.neg_controls = {2};
  qsim::Circuit c(3);
  c.push(g);

  qsim::Gate ref;
  ref.kind = qsim::GateKind::kPhase;
  ref.param = 0.7;
  ref.targets = {0};
  ref.neg_controls = {2};
  qsim::Circuit c_ref(3);
  c_ref.push(ref);

  qsim::Circuit spread(3);
  for (std::uint32_t q = 0; q < 3; ++q) spread.h(q);
  qsim::Statevector<double> interpreted(3);
  interpreted.apply(spread);
  qsim::Statevector<double> compiled = interpreted;
  interpreted.apply(c_ref);
  replay_one_lane(qsim::exec::compile<double>(c), compiled);
  for (std::size_t i = 0; i < interpreted.dim(); ++i) {
    EXPECT_NEAR(compiled[i].real(), interpreted[i].real(), 1e-14);
    EXPECT_NEAR(compiled[i].imag(), interpreted[i].imag(), 1e-14);
  }
}

TEST(Exec, PostCompileMeasurementMatchesInterpreter) {
  // End-to-end: compiled execution followed by the measurement queries
  // agrees with the interpreter path.
  Xoshiro256 rng(48);
  const auto c = random_circuit(rng, 5, 30);
  qsim::Statevector<double> a(5), b(5);
  a.apply(c);
  replay_one_lane(qsim::exec::compile<double>(c), b);
  EXPECT_NEAR(a.norm(), b.norm(), 1e-12);
  EXPECT_NEAR(a.probability(2, 1), b.probability(2, 1), 1e-12);
  EXPECT_NEAR(a.probability_all_zero({0, 3}), b.probability_all_zero({0, 3}), 1e-12);
  const auto pa = a.probabilities();
  const auto pb = b.probabilities();
  for (std::size_t i = 0; i < pa.size(); ++i) EXPECT_NEAR(pa[i], pb[i], 1e-12);
}

}  // namespace
