#include "blockenc/tridiagonal.hpp"

#include <cmath>

#include "common/contracts.hpp"
#include "blockenc/arith/adders.hpp"
#include "stateprep/kp_tree.hpp"

namespace mpqls::blockenc {

BlockEncoding tridiagonal_block_encoding(std::uint32_t n_data) {
  expects(n_data >= 2, "tridiagonal encoding needs N = 2^n >= 4");
  const std::uint32_t n = n_data;
  const std::uint32_t a0 = n, a1 = n + 1, a2 = n + 2;  // LCU selection
  const std::uint32_t flag = n + 3;                    // boundary-swap flag
  // Carry ancillas give the shift adders their linear T-cost (Table II's
  // O(n) block-encoding scaling; see arith/adders.hpp).
  const std::uint32_t n_carry = (n > 2) ? n - 2 : 0;
  const std::uint32_t width = n + 4 + n_carry;

  BlockEncoding be;
  be.n_data = n;
  be.n_anc = 4 + n_carry;
  be.alpha = 5.0;
  be.method = "tridiagonal-lcu";
  be.circuit = qsim::Circuit(width);

  std::vector<std::uint32_t> data(n);
  for (std::uint32_t q = 0; q < n; ++q) data[q] = q;
  std::vector<std::uint32_t> carries(n_carry);
  for (std::uint32_t q = 0; q < n_carry; ++q) carries[q] = n + 4 + q;

  // PREPARE sqrt(c_i / 5) over the 5 terms {1.5 I, -C_up, -C_down, S, D/2}.
  const std::vector<double> amps = {std::sqrt(0.3), std::sqrt(0.2), std::sqrt(0.2),
                                    std::sqrt(0.2), std::sqrt(0.1), 0.0, 0.0, 0.0};
  const auto prep = stateprep::kp_state_preparation(amps);
  const std::vector<std::uint32_t> anc_map = {a0, a1, a2};
  be.circuit.append(prep.circuit, anc_map);

  // Control patterns for ancilla value j on (a0, a1, a2).
  auto anc_pattern = [&](std::uint32_t j, std::vector<std::uint32_t>& pos,
                         std::vector<std::uint32_t>& neg) {
    pos.clear();
    neg.clear();
    for (std::uint32_t b = 0; b < 3; ++b) {
      ((j >> b) & 1u) ? pos.push_back(n + b) : neg.push_back(n + b);
    }
  };
  std::vector<std::uint32_t> pos, neg;

  // Term 1: -C_up (increment with a folded pi phase).
  {
    qsim::Circuit t(width);
    append_increment_carry(t, data, carries);
    t.global_phase(M_PI);
    anc_pattern(1, pos, neg);
    be.circuit.append(t.controlled(pos, neg));
  }
  // Term 2: -C_down (decrement, pi phase).
  {
    qsim::Circuit t(width);
    append_decrement_carry(t, data, carries);
    t.global_phase(M_PI);
    anc_pattern(2, pos, neg);
    be.circuit.append(t.controlled(pos, neg));
  }
  // Term 3: S — swap |0..0> <-> |1..1> using the flag ancilla: mark both
  // boundary states, flip all data bits when marked, unmark.
  {
    qsim::Circuit t(width);
    std::vector<std::uint32_t> all_data = data;
    {
      qsim::Gate g;  // flag ^= (j == 0)
      g.kind = qsim::GateKind::kX;
      g.targets = {flag};
      g.neg_controls = all_data;
      t.push(g);
    }
    t.mcx(all_data, flag);  // flag ^= (j == N-1)
    for (std::uint32_t q : data) t.cx(flag, q);
    {
      qsim::Gate g;
      g.kind = qsim::GateKind::kX;
      g.targets = {flag};
      g.neg_controls = all_data;
      t.push(g);
    }
    t.mcx(all_data, flag);
    anc_pattern(3, pos, neg);
    be.circuit.append(t.controlled(pos, neg));
  }
  // Term 4: D = -(I - 2 P_0)(I - 2 P_{N-1}) = diag(+1 at 0 and N-1, -1).
  {
    qsim::Circuit t(width);
    // Reflection about |1..1>: multi-controlled Z.
    std::vector<std::uint32_t> controls(data.begin(), data.end() - 1);
    t.mcz(controls, data.back());
    // Reflection about |0..0>: sign flip when every data bit is 0.
    qsim::Gate g;
    g.kind = qsim::GateKind::kDiagonal;
    g.targets = {data[0]};
    g.neg_controls.assign(data.begin() + 1, data.end());
    g.diagonal = std::make_shared<const std::vector<qsim::c64>>(
        std::vector<qsim::c64>{-1.0, 1.0});
    t.push(g);
    t.global_phase(M_PI);
    anc_pattern(4, pos, neg);
    be.circuit.append(t.controlled(pos, neg));
  }

  // PREPARE^dagger.
  qsim::Circuit unprep(width);
  unprep.append(prep.circuit.dagger(), anc_map);
  be.circuit.append(unprep);
  return be;
}

}  // namespace mpqls::blockenc
