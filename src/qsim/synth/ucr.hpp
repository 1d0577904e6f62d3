// Uniformly controlled single-qubit rotations (Mottonen et al. 2004,
// Shende-Bullock-Markov 2006): for control register value x, apply
// R(angles[x]) to the target. Compiled to 2^k plain rotations interleaved
// with CNOTs along a Gray-code walk — the core primitive behind the
// Kerenidis-Prakash state-preparation tree [23] and HHL's eigenvalue
// rotation.
#pragma once

#include <cstdint>
#include <vector>

#include "qsim/circuit.hpp"

namespace mpqls::qsim {

/// Append a uniformly controlled RY to `circuit`. `angles` has size
/// 2^controls.size(), indexed by the control bits (controls[b] = qubit
/// carrying bit b of the index x).
void append_ucry(Circuit& circuit, const std::vector<std::uint32_t>& controls,
                 std::uint32_t target, const std::vector<double>& angles);

/// Append a uniformly controlled RZ (same indexing).
void append_ucrz(Circuit& circuit, const std::vector<std::uint32_t>& controls,
                 std::uint32_t target, const std::vector<double>& angles);

}  // namespace mpqls::qsim
