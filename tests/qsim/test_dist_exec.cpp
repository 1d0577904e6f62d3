// Distributed statevector execution vs single-node panel replay: the
// exchange plan's classification and scheduling (exact-diagonal demotion,
// X-conjugation elimination, naive vs scheduled round counts), and W-shard
// replay of B-lane shard panels through LocalPeerGroup reproducing a
// B-lane StatePanel replay of the same compiled program — exactly, in
// double and float, for B in {1, 3, 8, 16}, including the
// QSVT-shaped stream whose closing H fuses into a dense op with two
// partition-qubit targets. Also the shard-panel reductions, the lane cap
// that keeps exchange frames under the HTTP body cap, and the group's
// agreement on that cap when ranks run with different ones. Rank programs
// share their dense planes, an adjoint dense op demotes to its conjugate
// diagonal, and programs copied out of a ProgramSet outlive it.
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <exception>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "../support/exec_fixtures.hpp"
#include "common/rng.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/dist/dist_executor.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/exec/program_set.hpp"

namespace {

using namespace mpqls;
using namespace mpqls::qsim::exec;
using c64 = qsim::c64;

// The build_qsvt_circuit shape (H on the top "realpart" qubit, d rounds of
// block-encoding + phase gadget, closing H + global phase) with a random
// dense stand-in for the block encoding: data {0,1}, BE ancilla 2, signal
// 3, realpart 4.
qsim::Circuit qsvt_shaped_circuit(Xoshiro256& rng, std::size_t d) {
  qsim::Circuit c(5);
  linalg::Matrix<c64> be(8, 8);
  for (std::size_t i = 0; i < 8; ++i) {
    for (std::size_t j = 0; j < 8; ++j) be(i, j) = c64(rng.normal(), rng.normal());
  }
  // Orthonormalize columns (Gram-Schmidt) so the stand-in is unitary.
  for (std::size_t col = 0; col < 8; ++col) {
    for (std::size_t p = 0; p < col; ++p) {
      c64 overlap{};
      for (std::size_t r = 0; r < 8; ++r) overlap += std::conj(be(r, p)) * be(r, col);
      for (std::size_t r = 0; r < 8; ++r) be(r, col) -= overlap * be(r, p);
    }
    double nrm = 0.0;
    for (std::size_t r = 0; r < 8; ++r) nrm += std::norm(be(r, col));
    nrm = std::sqrt(nrm);
    for (std::size_t r = 0; r < 8; ++r) be(r, col) /= nrm;
  }

  c.h(4);
  for (std::size_t k = 0; k < d; ++k) {
    c.unitary({0, 1, 2}, be);
    const double phi = 0.3 + 0.1 * static_cast<double>(k);
    qsim::Gate cpix;
    cpix.kind = qsim::GateKind::kX;
    cpix.targets = {3};
    cpix.neg_controls = {2};
    c.push(cpix);
    c.rz(3, 2.0 * phi);
    c.crz(4, 3, -4.0 * phi);
    c.push(cpix);
  }
  c.h(4);
  c.global_phase(-M_PI / 2.0);
  return c;
}

std::vector<std::complex<double>> random_state(Xoshiro256& rng, std::uint32_t n) {
  std::vector<std::complex<double>> amps(std::size_t{1} << n);
  double nrm = 0.0;
  for (auto& a : amps) {
    a = {rng.normal(), rng.normal()};
    nrm += std::norm(a);
  }
  nrm = std::sqrt(nrm);
  for (auto& a : amps) a /= nrm;
  return amps;
}

// Gate soup over every kernel kind with random controls (the same recipe
// the panel-exec tests use), so classification sees high/low targets and
// masks in every combination.
qsim::Circuit random_circuit(Xoshiro256& rng, std::uint32_t n, std::size_t gates) {
  qsim::Circuit c(n);
  for (std::size_t i = 0; i < gates; ++i) {
    qsim::Gate g;
    g.adjoint = rng.uniform() < 0.3;
    std::uint64_t used = 0;
    auto pick = [&](std::size_t count) {
      std::vector<std::uint32_t> out;
      while (out.size() < count) {
        const auto q = static_cast<std::uint32_t>(rng.uniform_index(n));
        if (used & (std::uint64_t{1} << q)) continue;
        used |= std::uint64_t{1} << q;
        out.push_back(q);
      }
      return out;
    };
    switch (rng.uniform_index(5)) {
      case 0:
        g.kind = qsim::GateKind::kH;
        g.targets = pick(1);
        break;
      case 1:
        g.kind = qsim::GateKind::kRz;
        g.param = rng.uniform(-3.0, 3.0);
        g.targets = pick(1);
        break;
      case 2:
        g.kind = qsim::GateKind::kGlobalPhase;
        g.param = rng.uniform(-3.0, 3.0);
        break;
      case 3: {
        const std::size_t k = 1 + rng.uniform_index(2);
        g.kind = qsim::GateKind::kDiagonal;
        g.targets = pick(k);
        std::vector<c64> d(std::size_t{1} << k);
        for (auto& v : d) v = std::exp(c64(0, rng.uniform(-3.0, 3.0)));
        g.diagonal = std::make_shared<const std::vector<c64>>(std::move(d));
        break;
      }
      default:
        g.kind = qsim::GateKind::kX;
        g.targets = pick(1);
        break;
    }
    if (g.kind != qsim::GateKind::kGlobalPhase) {
      const std::size_t n_ctrl = rng.uniform_index(3);
      for (std::size_t k = 0; k < n_ctrl && used != (std::uint64_t{1} << n) - 1; ++k) {
        const auto q = pick(1)[0];
        if (rng.uniform() < 0.5) {
          g.controls.push_back(q);
        } else {
          g.neg_controls.push_back(q);
        }
      }
    }
    c.push(std::move(g));
  }
  return c;
}

/// One random normalized state per lane: lanes[l][g].
using Lanes = std::vector<std::vector<std::complex<double>>>;
Lanes random_lanes(Xoshiro256& rng, std::uint32_t n, std::size_t lanes) {
  Lanes out;
  for (std::size_t l = 0; l < lanes; ++l) out.push_back(random_state(rng, n));
  return out;
}

/// Rank r's shard panel of `init`: global amplitude (r << m) | i of lane l
/// lands at local amplitude i of lane l.
template <typename T>
std::vector<StatePanel<T>> shard_panels(const Lanes& init, std::uint32_t m,
                                        std::uint32_t world) {
  std::vector<StatePanel<T>> shards;
  for (std::uint32_t r = 0; r < world; ++r) {
    shards.emplace_back(m, init.size());
    for (std::size_t i = 0; i < shards.back().dim(); ++i) {
      for (std::size_t l = 0; l < init.size(); ++l) {
        shards.back().set_amp(i, l, init[l][(std::size_t{r} << m) | i]);
      }
    }
  }
  return shards;
}

/// Replay rank r's program on shard r, one thread per rank over a
/// LocalPeerGroup.
template <typename T>
std::vector<dist::DistRunMetrics> run_shards(const std::vector<dist::RankProgram<T>>& programs,
                                             std::vector<StatePanel<T>>& shards) {
  const auto world = static_cast<std::uint32_t>(shards.size());
  dist::LocalPeerGroup group(world);
  std::vector<dist::DistRunMetrics> metrics(world);
  std::vector<std::exception_ptr> errors(world);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < world; ++r) {
    threads.emplace_back([&, r] {
      try {
        auto channel = group.channel(r);
        std::uint64_t seq = 0;
        dist::run_rank_program<T>(programs[r], shards[r], *channel, seq, &metrics[r]);
      } catch (...) {
        errors[r] = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 0; r < world; ++r) {
    if (errors[r]) std::rethrow_exception(errors[r]);
  }
  return metrics;
}

/// Replay `plan` on every shard.
template <typename T>
std::vector<dist::DistRunMetrics> run_shards(const dist::ExchangePlan& plan,
                                             std::vector<StatePanel<T>>& shards) {
  std::vector<dist::RankProgram<T>> programs;
  for (std::uint32_t r = 0; r < shards.size(); ++r) {
    programs.push_back(dist::specialize_rank<T>(plan, r));
  }
  return run_shards(programs, shards);
}

// Replay `ir` on W shard panels and on one B-lane StatePanel, from the
// same initial lanes. With tol == 0 every global amplitude of every lane
// must match exactly — guaranteed whenever the plan's scheduling passes
// changed no op's kernel class (demoted_diagonal and conjugated_ops both
// zero; see exchange_plan.hpp). When a rewrite fires the values are equal
// but the multiply routes through a different kernel whose FMA
// contraction may differ in the last ulp, so those replays compare
// against a tight tolerance instead.
template <typename T>
void expect_dist_matches_panel(const FusedIr& ir, std::uint32_t world_log2, const Lanes& init,
                               double tol = 0.0, const dist::PlanOptions& popts = {}) {
  const std::uint32_t n = ir.num_qubits;
  const std::size_t lanes = init.size();
  const auto plan = dist::build_exchange_plan(ir, world_log2, popts);
  const std::uint32_t world = 1u << world_log2;
  const std::uint32_t m = plan.local_qubits;

  StatePanel<T> panel(n, lanes);
  for (std::size_t i = 0; i < panel.dim(); ++i) {
    for (std::size_t l = 0; l < lanes; ++l) panel.set_amp(i, l, init[l][i]);
  }
  PanelExecutor<T>().run(specialize<T>(ir), panel);

  auto shards = shard_panels<T>(init, m, world);
  run_shards(plan, shards);

  for (std::uint64_t g = 0; g < (std::uint64_t{1} << n); ++g) {
    for (std::size_t l = 0; l < lanes; ++l) {
      const auto got = shards[g >> m].amp(g & ((std::uint64_t{1} << m) - 1), l);
      const auto want = panel.amp(g, l);
      if (tol == 0.0) {
        EXPECT_EQ(got.real(), want.real()) << "amp " << g << " lane " << l << "/" << lanes
                                           << " W=" << world;
        EXPECT_EQ(got.imag(), want.imag()) << "amp " << g << " lane " << l << "/" << lanes
                                           << " W=" << world;
      } else {
        EXPECT_NEAR(std::abs(got - want), 0.0, tol)
            << "amp " << g << " lane " << l << "/" << lanes << " W=" << world;
      }
    }
  }
}

constexpr std::size_t kLaneCounts[] = {1, 3, 8, 16};

TEST(ExchangePlan, ClassifiesDiagonalsLocalAndCountsRounds) {
  qsim::Circuit c(4);
  c.h(3);                       // high target -> 1 exchange round
  c.rz(3, 0.7);                 // diagonal payload on high target -> demoted, local
  c.crz(3, 0, 0.3);             // high control, low target -> local
  c.diagonal_gate({1, 3}, {1.0, 1.0, 1.0, c64(0, 1)});  // diagonal high target -> local
  c.x(0);                       // purely local
  const auto ir = lower_and_fuse(c, {.fuse = false});
  const auto plan = dist::build_exchange_plan(ir, /*world_log2=*/1);
  EXPECT_EQ(plan.stats.scheduled_rounds, 1u);
  // Naive pays one round per high-qubit reference: h, rz, crz, diagonal.
  EXPECT_EQ(plan.stats.naive_rounds, 4u);
  EXPECT_EQ(plan.stats.demoted_diagonal, 1u);
  std::size_t exchanges = 0;
  for (const auto& p : plan.ops) exchanges += p.exchange ? 1 : 0;
  EXPECT_EQ(exchanges, 1u);
}

TEST(ExchangePlan, XConjugationEliminatesGadgetExchanges) {
  // The unfused QSVT stream: every gadget is CPiX · Rz · CRz · CPiX with
  // the signal qubit on the partition side (W=4 puts qubits 3 and 4
  // high). The pass must cancel both CPiX exchanges of every gadget,
  // leaving only the two H(realpart) rounds.
  Xoshiro256 rng(17);
  const std::size_t d = 6;
  const auto c = qsvt_shaped_circuit(rng, d);
  const auto ir = lower_and_fuse(c, {.fuse = false});

  const auto naive = dist::build_exchange_plan(ir, 2, {.schedule = false});
  const auto sched = dist::build_exchange_plan(ir, 2);
  EXPECT_EQ(sched.stats.scheduled_rounds, 2u);
  EXPECT_EQ(sched.stats.eliminated_exchanges, 2 * d);
  EXPECT_GE(sched.stats.naive_rounds, 5 * d);
  EXPECT_EQ(naive.stats.naive_rounds, sched.stats.naive_rounds);
  // The naive schedule really pays per gadget (2 CPiX exchanges each).
  EXPECT_GE(naive.stats.scheduled_rounds, 2 * d + 2);
  EXPECT_LT(sched.stats.scheduled_rounds, naive.stats.scheduled_rounds);
}

TEST(ExchangePlan, DefaultFusedQsvtIsExchangeLight) {
  // Default fusion folds each gadget into an exactly-diagonal window
  // (local via payload slicing); only the opening H and the closing
  // window (H fused into a dense op with two partition targets) exchange.
  Xoshiro256 rng(18);
  const auto c = qsvt_shaped_circuit(rng, 6);
  const auto ir = lower_and_fuse(c);
  const auto plan = dist::build_exchange_plan(ir, 2);
  EXPECT_LE(plan.stats.scheduled_rounds, 3u);
  EXPECT_LT(plan.stats.scheduled_rounds, plan.stats.naive_rounds);
}

TEST(DistExec, QsvtShapedReplayMatchesPanelExactly) {
  Xoshiro256 rng(21);
  const auto c = qsvt_shaped_circuit(rng, 4);
  {
    // The production path: default fusion emits the gadgets as kDiagonal
    // windows, no scheduling rewrite fires, and a B-lane shard replay is
    // bit-identical to the B-lane panel at every tier.
    const auto ir = lower_and_fuse(c);
    for (const std::uint32_t wl : {1u, 2u}) {
      const auto stats = dist::build_exchange_plan(ir, wl).stats;
      EXPECT_EQ(stats.demoted_diagonal, 0u);
      EXPECT_EQ(stats.conjugated_ops, 0u);
    }
    for (const std::size_t lanes : kLaneCounts) {
      const auto init = random_lanes(rng, 5, lanes);
      for (const std::uint32_t wl : {1u, 2u}) {
        expect_dist_matches_panel<double>(ir, wl, init);
        expect_dist_matches_panel<float>(ir, wl, init);
      }
    }
  }
  {
    // Unfused at W=4 the X-conjugation pass rewrites the gadget interiors
    // into diagonal-kernel ops: equal values, possibly differing FMA
    // contraction — compare to a tight tolerance. W=2 leaves the gadgets
    // local and untouched, so it stays exact.
    const auto ir = lower_and_fuse(c, {.fuse = false});
    const auto init = random_lanes(rng, 5, 3);
    expect_dist_matches_panel<double>(ir, 1, init);
    expect_dist_matches_panel<double>(ir, 2, init, 1e-13);
    expect_dist_matches_panel<float>(ir, 2, init, 1e-5);
  }
}

/// Every lane of every global amplitude of the shards equals the panel's,
/// bit for bit.
template <typename T>
void expect_shards_equal_panel(const std::vector<StatePanel<T>>& shards,
                               const StatePanel<T>& panel, std::uint32_t m) {
  for (std::uint64_t g = 0; g < panel.dim(); ++g) {
    for (std::size_t l = 0; l < panel.lanes(); ++l) {
      const auto got = shards[g >> m].amp(g & ((std::uint64_t{1} << m) - 1), l);
      EXPECT_EQ(got.real(), panel.amp(g, l).real()) << "amp " << g << " lane " << l;
      EXPECT_EQ(got.imag(), panel.amp(g, l).imag()) << "amp " << g << " lane " << l;
    }
  }
}

TEST(DistExec, RankProgramsShareTheirDensePlanes) {
  // U, U-dagger, ... six times on 4 of 5 qubits, one of them the
  // partition qubit at W=2, so every application is an exchange op. The
  // plan keeps the IR's one matrix (U-dagger flags it), and each rank
  // program rounds U and U-dagger once each.
  Xoshiro256 rng(24);
  const auto u = test::random_unitary(rng, 16);
  const auto c = test::alternating_unitary(5, {4, 0, 2, 1}, u, 3, 6, true);
  const auto ir = lower_and_fuse(c);
  const auto plan = dist::build_exchange_plan(ir, 1);
  EXPECT_EQ(test::distinct_dense_arrays(ir.ops, &FusedOp::payload).size(), 1u);
  std::set<const void*> plan_arrays;
  for (const auto& p : plan.ops) {
    if (p.op.kind == OpKind::kDense) plan_arrays.insert(p.op.payload.data());
  }
  EXPECT_EQ(plan_arrays, test::distinct_dense_arrays(ir.ops, &FusedOp::payload));

  for (std::uint32_t r = 0; r < 2; ++r) {
    const auto rp = dist::specialize_rank<float>(plan, r);
    std::set<const void*> re, im;
    std::size_t dense = 0;
    for (const auto& step : rp.steps) {
      for (const auto* program : {&step.local, &step.wide}) {
        for (const auto& op : program->ops) {
          if (op.kind != OpKind::kDense) continue;
          ++dense;
          re.insert(op.payload_re.data());
          im.insert(op.payload_im.data());
          EXPECT_TRUE(op.payload.empty());
        }
      }
    }
    EXPECT_EQ(dense, 6u) << "rank " << r;
    EXPECT_EQ(re.size(), 2u) << "rank " << r;
    EXPECT_EQ(im.size(), 2u) << "rank " << r;
  }
  for (const std::size_t lanes : kLaneCounts) {
    const auto init = random_lanes(rng, 5, lanes);
    expect_dist_matches_panel<double>(ir, 1, init);
    expect_dist_matches_panel<float>(ir, 1, init);
  }
}

TEST(DistExec, AdjointDiagonalUnitaryDemotesToItsConjugate) {
  // A dense unitary that is exactly diagonal, applied as its adjoint with
  // a partition-qubit target: the plan demotes it to a diagonal op, which
  // must carry the conjugated entries the flag asks for.
  linalg::Matrix<c64> d(4, 4);
  for (std::size_t i = 0; i < 4; ++i) d(i, i) = std::exp(c64(0.0, 0.4 + 0.7 * i));
  qsim::Circuit once(4);
  once.unitary({1, 3}, d);
  qsim::Circuit c(4);
  c.append(once).h(0).append(once.dagger()).append(once.dagger());
  const auto ir = lower_and_fuse(c, {.fuse = false});
  EXPECT_EQ(dist::build_exchange_plan(ir, 1).stats.demoted_diagonal, 3u);
  Xoshiro256 rng(25);
  const auto init = random_lanes(rng, 4, 3);
  expect_dist_matches_panel<double>(ir, 1, init, 1e-13);
  expect_dist_matches_panel<float>(ir, 1, init, 1e-5);
}

TEST(DistExec, ProgramsCopiedOutOfAProgramSetOutliveIt) {
  // A program copied out of its ProgramSet holds the set's matrices by
  // reference. Once the set, its IR and its plans are gone, the copies
  // must still replay bitwise as they did while it lived (under ASan a
  // dangling matrix reference is a use-after-free).
  Xoshiro256 rng(25);
  const auto u = test::random_unitary(rng, 16);
  auto set = std::make_unique<ProgramSet>(
      lower_and_fuse(test::alternating_unitary(5, {4, 0, 2, 1}, u, 3, 6, true)));
  const Program<double> program = set->get<double>();
  const std::vector<dist::RankProgram<double>> ranks = {set->rank_program<double>(1, 0),
                                                        set->rank_program<double>(1, 1)};
  const auto init = random_lanes(rng, 5, 3);
  const auto replay = [&](const Program<double>& p) {
    StatePanel<double> panel(5, init.size());
    for (std::size_t i = 0; i < panel.dim(); ++i) {
      for (std::size_t l = 0; l < init.size(); ++l) panel.set_amp(i, l, init[l][i]);
    }
    PanelExecutor<double>().run(p, panel);
    return panel;
  };
  const StatePanel<double> want = replay(set->get<double>());
  auto want_shards = shard_panels<double>(init, 4, 2);
  run_shards<double>({set->rank_program<double>(1, 0), set->rank_program<double>(1, 1)},
                     want_shards);
  expect_shards_equal_panel(want_shards, want, 4);

  set.reset();
  const StatePanel<double> got = replay(program);
  for (std::size_t i = 0; i < want.dim(); ++i) {
    for (std::size_t l = 0; l < init.size(); ++l) {
      EXPECT_EQ(got.amp(i, l).real(), want.amp(i, l).real());
      EXPECT_EQ(got.amp(i, l).imag(), want.amp(i, l).imag());
    }
  }
  auto shards = shard_panels<double>(init, 4, 2);
  run_shards(ranks, shards);
  expect_shards_equal_panel(shards, want, 4);
}

TEST(DistExec, NaiveScheduleReplaysCorrectlyToo) {
  // The round-count comparison is only honest if the naive plan is
  // executable: same parity requirement without the scheduling passes.
  Xoshiro256 rng(22);
  const auto c = qsvt_shaped_circuit(rng, 3);
  const auto ir = lower_and_fuse(c, {.fuse = false});
  for (const std::size_t lanes : {std::size_t{1}, std::size_t{3}}) {
    expect_dist_matches_panel<double>(ir, 2, random_lanes(rng, 5, lanes), 0.0,
                                      {.schedule = false});
  }
}

TEST(DistExec, RandomCircuitsMatchPanelExactly) {
  Xoshiro256 rng(23);
  for (int trial = 0; trial < 12; ++trial) {
    const auto n = static_cast<std::uint32_t>(3 + rng.uniform_index(4));  // 3..6
    const auto circ = random_circuit(rng, n, 30);
    const auto ir = lower_and_fuse(circ);
    // Exact whenever the scheduling passes changed no kernel class;
    // otherwise equal values through a different kernel — ulp tolerance.
    auto tol_for = [&](std::uint32_t wl) {
      const auto stats = dist::build_exchange_plan(ir, wl).stats;
      return (stats.demoted_diagonal == 0 && stats.conjugated_ops == 0) ? 0.0 : 1e-13;
    };
    for (const std::size_t lanes : kLaneCounts) {
      const auto init = random_lanes(rng, n, lanes);
      expect_dist_matches_panel<double>(ir, 1, init, tol_for(1));
      if (n >= 4) expect_dist_matches_panel<double>(ir, 2, init, tol_for(2));
    }
  }
}

TEST(DistExec, MetricsCountRoundsAndBytes) {
  Xoshiro256 rng(25);
  const auto c = qsvt_shaped_circuit(rng, 4);
  const auto ir = lower_and_fuse(c, {.fuse = false});
  const auto plan = dist::build_exchange_plan(ir, 2);
  const std::size_t lanes = 3;
  auto shards = shard_panels<double>(random_lanes(rng, 5, lanes), plan.local_qubits, 4);
  const auto metrics = run_shards(plan, shards);
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(metrics[r].exchange_rounds, plan.stats.scheduled_rounds) << "rank " << r;
    // Each pairwise round of an h=1 exchange ships both planes of every
    // lane of the 2^3-amplitude shard once, in one frame.
    EXPECT_EQ(metrics[r].bytes_moved,
              plan.stats.scheduled_rounds * 2 * 8 * lanes * sizeof(double));
  }
}

TEST(ShardPanel, LaneCapKeepsFramesUnderTheBodyCap) {
  constexpr std::size_t kCap = dist::kExchangeBodyCapBytes;
  dist::RankProgram<double> rp;
  rp.local_qubits = 14;
  // No exchange step: the cap is min(group, 16), whatever the body cap.
  EXPECT_EQ(dist::shard_panel_lanes(rp, 3, kCap), 3u);
  EXPECT_EQ(dist::shard_panel_lanes(rp, 40, kCap), dist::kMaxShardLanes);
  EXPECT_EQ(dist::shard_panel_lanes(rp, 0, kCap), 1u);
  EXPECT_EQ(dist::shard_panel_lanes(rp, 3, 0), 3u);
  // A two-target step's last round ships 2 slots of 2^14 complex doubles
  // per lane = 512 KiB: 15 lanes fit 8 MiB with the envelope, 16 do not.
  dist::RankStep<double> step;
  step.has_exchange = true;
  step.peer_bits = {0, 1};
  rp.steps.push_back(step);
  EXPECT_EQ(dist::shard_panel_lanes(rp, 40, kCap), 15u);
  EXPECT_EQ(dist::shard_panel_lanes(rp, 4, kCap), 4u);
  // A smaller body cap lowers the lane count: 2 MiB holds 3 such lanes.
  EXPECT_EQ(dist::shard_panel_lanes(rp, 40, std::size_t{2} << 20), 3u);
  // The lane count depends on the storage width: single frames are 2x smaller.
  dist::RankProgram<float> single;
  single.local_qubits = 14;
  single.steps.resize(1);
  single.steps[0].peer_bits = {0, 1};
  EXPECT_EQ(dist::shard_panel_lanes(single, 40, kCap), dist::kMaxShardLanes);
  // A frame wider than the cap at one lane still runs one lane (the peer
  // daemon then refuses it with 413 on every rank), as does a cap below
  // the envelope itself.
  EXPECT_EQ(dist::shard_panel_lanes(rp, 8, std::size_t{256} << 10), 1u);
  EXPECT_EQ(dist::shard_panel_lanes(rp, 8, dist::kExchangeEnvelopeBytes / 2), 1u);
  rp.local_qubits = 20;
  EXPECT_EQ(dist::shard_panel_lanes(rp, 8, kCap), 1u);
}

/// A LocalPeerGroup endpoint that reports its own body cap.
class CappedChannel final : public dist::PeerChannel {
 public:
  CappedChannel(std::shared_ptr<dist::PeerChannel> inner, std::size_t cap)
      : inner_(std::move(inner)), cap_(cap) {}
  void exchange(std::uint32_t peer, std::uint64_t seq, const void* send, void* recv,
                std::size_t bytes) override {
    inner_->exchange(peer, seq, send, recv, bytes);
  }
  std::size_t body_cap_bytes() const override { return cap_; }

 private:
  std::shared_ptr<dist::PeerChannel> inner_;
  std::size_t cap_;
};

TEST(ShardPanel, GroupBodyCapIsTheSmallestOnEveryRank) {
  dist::LocalPeerGroup group(4);
  const std::vector<std::size_t> caps = {std::size_t{8} << 20, 1536, std::size_t{1} << 60,
                                         std::size_t{3} << 20};
  std::vector<std::size_t> agreed(4, 0);
  std::vector<std::uint64_t> seqs(4, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      CappedChannel channel(group.channel(r), caps[r]);
      agreed[r] = dist::group_body_cap(channel, r, 2, seqs[r]);
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 0; r < 4; ++r) {
    EXPECT_EQ(agreed[r], 1536u) << "rank " << r;
    EXPECT_EQ(seqs[r], 2u) << "rank " << r;  // one allreduce: log2(W) stages
  }
  // An endpoint that reports nothing is sized for the default daemon cap.
  EXPECT_EQ(group.channel(0)->body_cap_bytes(), dist::kExchangeBodyCapBytes);
}

TEST(ShardPanel, ReductionsMatchPanel) {
  Xoshiro256 rng(26);
  const std::uint32_t n = 5;
  const std::uint32_t m = 3;  // W = 4: qubits 3 and 4 partition
  const std::size_t lanes = 3;
  const auto init = random_lanes(rng, n, lanes);
  // Masks over partition and local qubits; each set admits one rank.
  const std::vector<std::pair<std::vector<std::uint32_t>, std::vector<std::uint32_t>>> cases = {
      {{2, 3}, {4}},     // rank 2 only
      {{4}, {0, 3}},     // rank 1 only
      {{1}, {}},         // every rank
  };
  for (const auto& [zeros, ones] : cases) {
    StatePanel<double> panel(n, lanes);
    for (std::size_t i = 0; i < panel.dim(); ++i) {
      for (std::size_t l = 0; l < lanes; ++l) panel.set_amp(i, l, init[l][i]);
    }
    auto shards = shard_panels<double>(init, m, 4);

    const auto p_panel = panel.probability_match(zeros, ones);
    std::vector<double> p_dist(lanes, 0.0);
    std::uint32_t contributing = 0;
    for (std::uint32_t r = 0; r < 4; ++r) {
      const auto part = dist::shard_probability_match(shards[r], r, zeros, ones);
      const bool conflicts = !dist::shard_masks(m, r, zeros, ones).has_value();
      contributing += conflicts ? 0 : 1;
      for (std::size_t l = 0; l < lanes; ++l) {
        // A rank whose partition bits conflict contributes an exact zero.
        if (conflicts) {
          EXPECT_EQ(part[l], 0.0) << "rank " << r;
        }
        p_dist[l] += part[l];
      }
    }
    for (std::size_t l = 0; l < lanes; ++l) {
      if (contributing == 1) {
        EXPECT_EQ(p_dist[l], p_panel[l]) << "lane " << l;  // one owner: bitwise
      } else {
        EXPECT_NEAR(p_dist[l], p_panel[l], 1e-15) << "lane " << l;
      }
    }

    // Projecting with the global probabilities mirrors panel.postselect.
    panel.postselect(zeros, ones);
    for (std::uint32_t r = 0; r < 4; ++r) {
      dist::shard_project(shards[r], r, zeros, ones, p_dist);
    }
    for (std::uint64_t g = 0; g < (std::uint64_t{1} << n); ++g) {
      for (std::size_t l = 0; l < lanes; ++l) {
        const auto got = shards[g >> m].amp(g & 7, l);
        const auto want = panel.amp(g, l);
        if (contributing == 1) {
          EXPECT_EQ(got, want) << "amp " << g << " lane " << l;
        } else {
          EXPECT_NEAR(std::abs(got - want), 0.0, 1e-15) << "amp " << g << " lane " << l;
        }
      }
    }
  }
}

TEST(LocalPeerGroup, AllreduceSumIsRankInvariant) {
  dist::LocalPeerGroup group(4);
  std::vector<std::vector<double>> data(4);
  for (std::uint32_t r = 0; r < 4; ++r) {
    data[r] = {0.1 * (r + 1), -0.25 * (r + 1), 1e-9 * (r + 1)};
  }
  std::vector<double> expect_sum(3, 0.0);
  std::vector<std::thread> threads;
  for (std::uint32_t r = 0; r < 4; ++r) {
    threads.emplace_back([&, r] {
      auto channel = group.channel(r);
      std::uint64_t seq = 0;
      dist::allreduce_sum(*channel, r, 2, seq, data[r].data(), data[r].size());
    });
  }
  for (auto& t : threads) t.join();
  for (std::uint32_t r = 1; r < 4; ++r) {
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(data[r][i], data[0][i]) << "rank " << r << " slot " << i;
    }
  }
  (void)expect_sum;
}

}  // namespace
