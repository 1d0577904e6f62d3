// Shared fixtures of the execution-engine tests: random gate soups that hit
// every lowering path and compiled kernel, random states, and a one-lane
// replay of a compiled program against a Statevector reference.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"
#include "qsim/exec/program.hpp"
#include "qsim/statevector.hpp"

namespace mpqls::test {

using c64 = qsim::c64;

/// Random unitary: Gram-Schmidt on a complex Gaussian matrix, or with
/// `real` on a real one (a real orthogonal matrix, every imaginary part
/// exactly zero).
inline linalg::Matrix<c64> random_unitary(Xoshiro256& rng, std::size_t dim, bool real = false) {
  linalg::Matrix<c64> m(dim, dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t j = 0; j < dim; ++j) m(i, j) = c64(rng.normal(), real ? 0.0 : rng.normal());
  }
  for (std::size_t c = 0; c < dim; ++c) {
    for (std::size_t p = 0; p < c; ++p) {
      c64 overlap{};
      for (std::size_t r = 0; r < dim; ++r) overlap += std::conj(m(r, p)) * m(r, c);
      for (std::size_t r = 0; r < dim; ++r) m(r, c) -= overlap * m(r, p);
    }
    double nrm = 0.0;
    for (std::size_t r = 0; r < dim; ++r) nrm += std::norm(m(r, c));
    nrm = std::sqrt(nrm);
    for (std::size_t r = 0; r < dim; ++r) m(r, c) /= nrm;
  }
  return m;
}

/// Pick `count` distinct qubits from [0, n), excluding `used` bits.
inline std::vector<std::uint32_t> pick_qubits(Xoshiro256& rng, std::uint32_t n, std::size_t count,
                                              std::uint64_t& used) {
  std::vector<std::uint32_t> out;
  while (out.size() < count) {
    const auto q = static_cast<std::uint32_t>(rng.uniform_index(n));
    if (used & (std::uint64_t{1} << q)) continue;
    used |= std::uint64_t{1} << q;
    out.push_back(q);
  }
  return out;
}

/// A random gate soup hitting every lowering path: named 1q gates,
/// rotations, phases, global phases, swaps, dense unitaries, diagonals —
/// each with random adjoint flags and random positive/negative controls.
inline qsim::Circuit random_circuit(Xoshiro256& rng, std::uint32_t n, std::size_t gates) {
  qsim::Circuit c(n);
  const qsim::GateKind named[] = {qsim::GateKind::kX,  qsim::GateKind::kY, qsim::GateKind::kZ,
                                  qsim::GateKind::kH,  qsim::GateKind::kS, qsim::GateKind::kSdg,
                                  qsim::GateKind::kT,  qsim::GateKind::kTdg};
  const qsim::GateKind rot[] = {qsim::GateKind::kRx, qsim::GateKind::kRy, qsim::GateKind::kRz,
                                qsim::GateKind::kPhase};
  for (std::size_t i = 0; i < gates; ++i) {
    qsim::Gate g;
    g.adjoint = rng.uniform() < 0.3;
    std::uint64_t used = 0;
    const auto kind_pick = rng.uniform_index(6);
    switch (kind_pick) {
      case 0:
        g.kind = named[rng.uniform_index(8)];
        g.targets = pick_qubits(rng, n, 1, used);
        break;
      case 1:
        g.kind = rot[rng.uniform_index(4)];
        g.param = rng.uniform(-3.0, 3.0);
        g.targets = pick_qubits(rng, n, 1, used);
        break;
      case 2:
        g.kind = qsim::GateKind::kGlobalPhase;
        g.param = rng.uniform(-3.0, 3.0);
        break;
      case 3: {
        if (n < 2) continue;
        g.kind = qsim::GateKind::kSwap;
        g.targets = pick_qubits(rng, n, 2, used);
        break;
      }
      case 4: {
        const std::size_t k = 1 + rng.uniform_index(std::min<std::uint32_t>(3, n));
        g.kind = qsim::GateKind::kUnitary;
        g.targets = pick_qubits(rng, n, k, used);
        g.matrix = std::make_shared<const linalg::Matrix<c64>>(
            random_unitary(rng, std::size_t{1} << k));
        break;
      }
      default: {
        const std::size_t k = 1 + rng.uniform_index(std::min<std::uint32_t>(2, n));
        g.kind = qsim::GateKind::kDiagonal;
        g.targets = pick_qubits(rng, n, k, used);
        std::vector<c64> d(std::size_t{1} << k);
        for (auto& v : d) v = std::exp(c64(0, rng.uniform(-3.0, 3.0)));
        g.diagonal = std::make_shared<const std::vector<c64>>(std::move(d));
        break;
      }
    }
    // Random controls on whatever qubits remain. Global phases stay
    // uncontrolled here: the interpreter ignores controls on kGlobalPhase
    // (Circuit::controlled rewrites them to phase gates before they reach
    // it), so a raw controlled global phase has no interpreter reference.
    const std::uint64_t free_qubits =
        g.kind == qsim::GateKind::kGlobalPhase
            ? 0
            : n - static_cast<std::uint32_t>(g.targets.size());
    const std::size_t n_ctrl = rng.uniform_index(std::min<std::uint64_t>(3, free_qubits + 1));
    for (std::size_t k = 0; k < n_ctrl; ++k) {
      const auto q = pick_qubits(rng, n, 1, used)[0];
      if (rng.uniform() < 0.5) {
        g.controls.push_back(q);
      } else {
        g.neg_controls.push_back(q);
      }
    }
    c.push(std::move(g));
  }
  return c;
}

/// A random normalized complex state of 2^n amplitudes.
inline std::vector<std::complex<double>> random_state(Xoshiro256& rng, std::uint32_t n) {
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

/// `rounds` applications of the dense unitary `u` on `targets`,
/// alternating with its adjoint, with an rz on `spare` between them — the
/// way the QSVT circuit applies its block encoding. With `shared` every
/// application refers to one matrix object (a circuit and its dagger,
/// appended in turn); otherwise each is its own unitary() call with equal
/// entries, and no two share anything.
inline qsim::Circuit alternating_unitary(std::uint32_t n, const std::vector<std::uint32_t>& targets,
                                         const linalg::Matrix<c64>& u, std::uint32_t spare,
                                         int rounds, bool shared) {
  qsim::Circuit one(n);
  one.unitary(targets, u);
  const qsim::Circuit one_dag = one.dagger();
  qsim::Circuit c(n);
  for (int k = 0; k < rounds; ++k) {
    if (shared) {
      c.append(k % 2 == 0 ? one : one_dag);
    } else {
      qsim::Circuit own(n);
      own.unitary(targets, u);
      c.append(k % 2 == 0 ? own : own.dagger());
    }
    c.rz(spare, 0.25 * (k + 1));
  }
  return c;
}

/// A program with both dense kernels: a real orthogonal block encoding
/// applied the QSVT way (alternating_unitary on 4 of 5 qubits, too wide to
/// fuse, so each application is one real dense op), closed by a window of
/// rz, H, S and CX gates on 3 qubits that fuses into one complex dense op.
inline qsim::Circuit mixed_real_complex(Xoshiro256& rng) {
  auto c = alternating_unitary(5, {4, 0, 2, 1}, random_unitary(rng, 16, /*real=*/true), 3, 4,
                               true);
  c.h(0).s(1).cx(0, 1).h(1);
  return c;
}

/// The distinct `data()` pointers of one array member over the dense ops
/// of an IR or program.
template <typename Ops, typename Member>
std::set<const void*> distinct_dense_arrays(const Ops& ops, Member member) {
  std::set<const void*> out;
  for (const auto& op : ops) {
    if (op.kind == qsim::exec::OpKind::kDense) out.insert((op.*member).data());
  }
  return out;
}

/// Replay `program` on a one-lane panel holding `sv`'s amplitudes and
/// write the lane back: compiled execution against a Statevector.
template <typename T>
void replay_one_lane(const qsim::exec::Program<T>& program, qsim::Statevector<T>& sv) {
  qsim::exec::StatePanel<T> panel(sv.num_qubits(), 1);
  for (std::size_t i = 0; i < sv.dim(); ++i) panel.set_amp(i, 0, {sv[i].real(), sv[i].imag()});
  qsim::exec::PanelExecutor<T>().run(program, panel);
  for (std::size_t i = 0; i < sv.dim(); ++i) {
    const auto a = panel.amp(i, 0);
    sv[i] = {static_cast<T>(a.real()), static_cast<T>(a.imag())};
  }
}

}  // namespace mpqls::test
