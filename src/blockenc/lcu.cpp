#include "blockenc/lcu.hpp"

#include <bit>
#include <cmath>

#include "common/contracts.hpp"
#include "stateprep/kp_tree.hpp"

namespace mpqls::blockenc {

BlockEncoding lcu_block_encoding(const std::vector<PauliTerm>& terms, std::uint32_t n_data) {
  expects(!terms.empty(), "lcu: need at least one term");
  const std::size_t L = terms.size();
  const std::uint32_t m = (L <= 1) ? 1 : static_cast<std::uint32_t>(std::bit_width(L - 1));
  const std::size_t slots = std::size_t{1} << m;

  double alpha = 0.0;
  for (const auto& t : terms) alpha += std::abs(t.coefficient);
  expects(alpha > 0.0, "lcu: all coefficients are zero");

  BlockEncoding be;
  be.n_data = n_data;
  be.n_anc = m;
  be.alpha = alpha;
  be.method = "lcu-pauli";
  be.circuit = qsim::Circuit(n_data + m);

  // PREPARE: |0> -> sum_j sqrt(|c_j|/alpha) |j> on the ancilla register.
  std::vector<double> amps(slots, 0.0);
  for (std::size_t j = 0; j < L; ++j) amps[j] = std::sqrt(std::abs(terms[j].coefficient) / alpha);
  const auto prep = stateprep::kp_state_preparation(amps);

  std::vector<std::uint32_t> anc_map(m);
  for (std::uint32_t b = 0; b < m; ++b) anc_map[b] = n_data + b;
  be.circuit.append(prep.circuit, anc_map);

  // SELECT: controlled (e^{i arg c_j} P_j) on ancilla value j. Controls on
  // zero bits are negative controls (no X sandwiches needed).
  for (std::size_t j = 0; j < L; ++j) {
    qsim::Circuit term_circ(n_data);
    append_pauli(term_circ, terms[j].string);
    const double phase = std::arg(terms[j].coefficient);
    if (std::fabs(phase) > 1e-15) term_circ.global_phase(phase);
    std::vector<std::uint32_t> pos, neg;
    for (std::uint32_t b = 0; b < m; ++b) {
      ((j >> b) & 1u) ? pos.push_back(n_data + b) : neg.push_back(n_data + b);
    }
    be.circuit.append(term_circ.controlled(pos, neg));
  }

  // PREPARE^dagger.
  qsim::Circuit unprep(n_data + m);
  unprep.append(prep.circuit.dagger(), anc_map);
  be.circuit.append(unprep);
  return be;
}

BlockEncoding lcu_block_encoding(const linalg::Matrix<double>& A, double prune_tol) {
  expects(std::has_single_bit(A.rows()), "lcu: dimension must be 2^n");
  const auto n = static_cast<std::uint32_t>(std::countr_zero(A.rows()));
  return lcu_block_encoding(tree_pauli_decompose(A, prune_tol), n);
}

}  // namespace mpqls::blockenc
