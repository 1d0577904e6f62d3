#include "qsim/synth/amplitude_estimation.hpp"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/contracts.hpp"
#include "qsim/statevector.hpp"
#include "qsim/synth/qft.hpp"

namespace mpqls::qsim {

namespace {

// Grover iterate G = V S_0 V^dagger S_good (global signs folded in):
// S_good flips the sign of the marked ("good") subspace — here the
// subspace where all `marked_zero` qubits are |0> — and S_0 reflects about
// the all-zero state of V's register.
Circuit build_grover_iterate(const Circuit& v, const std::vector<std::uint32_t>& marked_zero) {
  const std::uint32_t width = v.num_qubits();
  Circuit g(width);

  // S_good: -1 on (all marked qubits zero). Diagonal {-1, 1} on the first
  // marked qubit, negatively controlled on the rest.
  {
    expects(!marked_zero.empty(), "amplitude estimation: no marked qubits");
    Gate d;
    d.kind = GateKind::kDiagonal;
    d.targets = {marked_zero.front()};
    d.neg_controls.assign(marked_zero.begin() + 1, marked_zero.end());
    d.diagonal = std::make_shared<const std::vector<c64>>(std::vector<c64>{-1.0, 1.0});
    g.push(d);
  }
  g.append(v.dagger());
  // S_0: -1 on |0...0> of the whole register.
  {
    Gate d;
    d.kind = GateKind::kDiagonal;
    d.targets = {0};
    std::vector<std::uint32_t> rest;
    for (std::uint32_t q = 1; q < width; ++q) rest.push_back(q);
    d.neg_controls = std::move(rest);
    d.diagonal = std::make_shared<const std::vector<c64>>(std::vector<c64>{-1.0, 1.0});
    g.push(d);
  }
  g.append(v);
  // Global -1 making G = -V S_0 V^dagger S_good, whose eigenphases are
  // +-2 theta with a = sin^2(theta).
  g.global_phase(M_PI);
  return g;
}

}  // namespace

AmplitudeEstimationResult estimate_amplitude(const Circuit& v,
                                             const std::vector<std::uint32_t>& marked_zero,
                                             std::uint32_t clock_qubits,
                                             std::uint64_t seed, std::uint64_t shots) {
  expects(clock_qubits >= 2 && clock_qubits <= 12, "amplitude estimation: clock in [2,12]");
  const std::uint32_t n = v.num_qubits();
  const std::uint32_t width = n + clock_qubits;

  AmplitudeEstimationResult out;
  out.clock_qubits = clock_qubits;

  // Reference value from the raw state (diagnostics only).
  {
    Statevector<double> ref(n);
    ref.apply(v);
    out.exact = ref.probability_all_zero(marked_zero);
  }

  // QPE over the Grover iterate.
  const Circuit grover = build_grover_iterate(v, marked_zero);
  Circuit qpe(width);
  std::vector<std::uint32_t> clock(clock_qubits);
  for (std::uint32_t k = 0; k < clock_qubits; ++k) clock[k] = n + k;
  qpe.append(v);
  for (auto c : clock) qpe.h(c);
  for (std::uint32_t k = 0; k < clock_qubits; ++k) {
    const std::size_t reps = std::size_t{1} << k;
    Circuit controlled = grover.controlled({clock[k]});
    for (std::size_t r = 0; r < reps; ++r) qpe.append(controlled);
    out.grover_calls += reps;
  }
  append_iqft(qpe, clock);

  Statevector<double> sv(width);
  sv.apply(qpe);

  // Sample the clock register; convert the modal outcome y to
  // a = sin^2(pi y / 2^m).
  Xoshiro256 rng(seed);
  std::map<std::uint64_t, std::uint64_t> histogram;
  const std::size_t bins = std::size_t{1} << clock_qubits;
  for (const std::size_t outcome : sv.sample(rng, shots)) {
    ++histogram[(outcome >> n) % bins];
  }
  std::uint64_t mode = 0, mode_count = 0;
  for (const auto& [y, count] : histogram) {
    if (count > mode_count) {
      mode = y;
      mode_count = count;
    }
  }
  const double theta = M_PI * static_cast<double>(mode) / static_cast<double>(bins);
  out.estimate = std::sin(theta) * std::sin(theta);
  return out;
}

}  // namespace mpqls::qsim
