#include "blockenc/block_encoding.hpp"

#include "qsim/exec/compile.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace mpqls::blockenc {

linalg::Matrix<std::complex<double>> encoded_block(const BlockEncoding& be) {
  const std::size_t dim = std::size_t{1} << be.n_data;
  linalg::Matrix<std::complex<double>> block(dim, dim);
  // Column j of the block: apply U to |0>_a |j> and read the ancilla-zero
  // amplitudes (cheaper than building the full unitary). Lane j of one
  // dim-lane panel starts at |j>, so one replay of the compiled circuit
  // produces every column.
  qsim::exec::StatePanel<double> panel(be.total_qubits(), dim);
  for (std::size_t j = 0; j < dim; ++j) {
    panel.set_amp(0, j, 0.0);
    panel.set_amp(j, j, 1.0);
  }
  qsim::exec::PanelExecutor<double>().run(qsim::exec::compile<double>(be.circuit), panel);
  for (std::size_t j = 0; j < dim; ++j) {
    for (std::size_t i = 0; i < dim; ++i) block(i, j) = panel.amp(i, j) * be.alpha;
  }
  return block;
}

}  // namespace mpqls::blockenc
