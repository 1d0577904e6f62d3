// Block-encoding interface (Section II-A1 of the paper): a unitary U on
// data + ancilla qubits with  <0|_a <i| U |0>_a |j> = A_ij / alpha.
// Layout convention: data qubits are the low indices [0, n_data), ancillas
// sit above them — so the encoded block is the top-left corner of the
// unitary's matrix.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "qsim/circuit.hpp"

namespace mpqls::blockenc {

struct BlockEncoding {
  qsim::Circuit circuit;      ///< on n_data + n_anc qubits
  std::uint32_t n_data = 0;
  std::uint32_t n_anc = 0;
  double alpha = 1.0;         ///< subnormalization factor
  std::string method;         ///< "dense-embedding", "lcu-pauli", ...

  std::uint32_t total_qubits() const { return n_data + n_anc; }

  std::vector<std::uint32_t> data_qubits() const {
    std::vector<std::uint32_t> q(n_data);
    for (std::uint32_t i = 0; i < n_data; ++i) q[i] = i;
    return q;
  }
  std::vector<std::uint32_t> ancilla_qubits() const {
    std::vector<std::uint32_t> q(n_anc);
    for (std::uint32_t i = 0; i < n_anc; ++i) q[i] = n_data + i;
    return q;
  }
};

/// Materialize the encoded block alpha * (top-left corner of U): the matrix
/// the encoding claims to represent. O(4^n) — tests and small problems.
linalg::Matrix<std::complex<double>> encoded_block(const BlockEncoding& be);

}  // namespace mpqls::blockenc
