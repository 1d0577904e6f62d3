// Statevector simulator templated on the real precision T (float or
// double). The float instantiation is the "mixed-precision native" backend
// the repro calls for: it makes the QPU's arithmetic genuinely lower
// precision than the CPU's, in addition to the paper's algorithmic accuracy
// knob eps_l. Every kernel and reduction is a serial loop in amplitude
// order; concurrent solves parallelize across registers, not within one.
#pragma once

#include <algorithm>
#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/sampling.hpp"
#include "linalg/matrix.hpp"
#include "qsim/circuit.hpp"
#include "qsim/gate.hpp"

namespace mpqls::qsim {

template <typename T>
class Statevector {
 public:
  using complex_type = std::complex<T>;

  explicit Statevector(std::uint32_t num_qubits)
      : num_qubits_(num_qubits), amps_(std::size_t{1} << num_qubits) {
    expects(num_qubits <= 30, "statevector: too many qubits");
    amps_[0] = complex_type(1);
  }

  /// Initialize from classical amplitudes (normalized by the caller or via
  /// `normalize()`).
  static Statevector from_amplitudes(std::uint32_t num_qubits,
                                     const std::vector<std::complex<double>>& amps) {
    expects(amps.size() == (std::size_t{1} << num_qubits), "amplitude count mismatch");
    Statevector sv(num_qubits);
    for (std::size_t i = 0; i < amps.size(); ++i) {
      sv.amps_[i] = complex_type(static_cast<T>(amps[i].real()), static_cast<T>(amps[i].imag()));
    }
    return sv;
  }

  std::uint32_t num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return amps_.size(); }
  const std::vector<complex_type>& amplitudes() const { return amps_; }
  complex_type& operator[](std::size_t i) { return amps_[i]; }
  const complex_type& operator[](std::size_t i) const { return amps_[i]; }
  /// Raw amplitude storage — the contract the execution engine's compiled
  /// kernels (qsim/exec) run against.
  complex_type* data() { return amps_.data(); }
  const complex_type* data() const { return amps_.data(); }

  // The reductions below (norm, probability, probability_all_zero) sum
  // left to right in amplitude order at every register size, so their
  // results — and everything downstream (postselect normalization,
  // residuals) — are bitwise reproducible whatever the process's thread
  // count.
  double norm() const {
    double s = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      s += std::norm(std::complex<double>(amps_[i].real(), amps_[i].imag()));
    }
    return std::sqrt(s);
  }

  void normalize() {
    const double n = norm();
    expects(n > 0.0, "cannot normalize the zero vector");
    const T inv = static_cast<T>(1.0 / n);
    for (auto& a : amps_) a *= inv;
  }

  /// <this|other>
  std::complex<double> inner(const Statevector& other) const {
    expects(dim() == other.dim(), "inner: dimension mismatch");
    std::complex<double> s{};
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      s += std::conj(std::complex<double>(amps_[i].real(), amps_[i].imag())) *
           std::complex<double>(other.amps_[i].real(), other.amps_[i].imag());
    }
    return s;
  }

  // --- gate application -----------------------------------------------------

  void apply(const Gate& g) {
    std::uint64_t pos_mask = 0, neg_mask = 0;
    for (auto q : g.controls) pos_mask |= std::uint64_t{1} << q;
    for (auto q : g.neg_controls) neg_mask |= std::uint64_t{1} << q;
    switch (g.kind) {
      case GateKind::kGlobalPhase: {
        const std::complex<double> ph = std::exp(std::complex<double>(0, g.adjoint ? -g.param : g.param));
        const complex_type phc(static_cast<T>(ph.real()), static_cast<T>(ph.imag()));
        for (auto& a : amps_) a *= phc;
        return;
      }
      case GateKind::kSwap:
        apply_swap(g.targets[0], g.targets[1], pos_mask, neg_mask);
        return;
      case GateKind::kUnitary:
        apply_dense(g.targets, *g.matrix, g.adjoint, pos_mask, neg_mask);
        return;
      case GateKind::kDiagonal:
        apply_diagonal(g.targets, *g.diagonal, g.adjoint, pos_mask, neg_mask);
        return;
      default: {
        const auto m = gate_matrix_1q(g.kind, g.param, g.adjoint);
        apply_1q(g.targets[0], m, pos_mask, neg_mask);
        return;
      }
    }
  }

  void apply(const Circuit& circuit) {
    expects((std::size_t{1} << circuit.num_qubits()) <= dim(), "circuit wider than register");
    for (const auto& g : circuit.gates()) apply(g);
  }

  // --- measurement ----------------------------------------------------------

  /// Probability that qubit q measures `value`.
  double probability(std::uint32_t q, int value) const {
    const std::uint64_t bit = std::uint64_t{1} << q;
    double p = 0.0;
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
      if (((i & bit) != 0) == (value != 0)) {
        p += std::norm(std::complex<double>(amps_[i].real(), amps_[i].imag()));
      }
    }
    return p;
  }

  /// Probability that all qubits in `qubits` measure 0.
  double probability_all_zero(const std::vector<std::uint32_t>& qubits) const {
    std::uint64_t mask = 0;
    for (auto q : qubits) mask |= std::uint64_t{1} << q;
    double p = 0.0;
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
      if ((i & mask) == 0) {
        p += std::norm(std::complex<double>(amps_[i].real(), amps_[i].imag()));
      }
    }
    return p;
  }

  /// Project onto the subspace where all `qubits` are 0 and renormalize.
  /// Returns the pre-projection probability (for success accounting).
  double postselect_zero(const std::vector<std::uint32_t>& qubits) {
    std::uint64_t mask = 0;
    for (auto q : qubits) mask |= std::uint64_t{1} << q;
    const double p = probability_all_zero(qubits);
    expects(p > 0.0, "postselect_zero: zero-probability branch");
    const T inv = static_cast<T>(1.0 / std::sqrt(p));
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      if ((i & mask) == 0) {
        amps_[i] *= inv;
      } else {
        amps_[i] = complex_type{};
      }
    }
    return p;
  }

  /// Full measurement distribution |amp_i|^2.
  std::vector<double> probabilities() const {
    std::vector<double> p(amps_.size());
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      p[i] = std::norm(std::complex<double>(amps_[i].real(), amps_[i].imag()));
    }
    return p;
  }

  /// Reusable readout handle: one O(2^n) cumulative-distribution pass, any
  /// number of O(log 2^n) draws. Callers that sample repeatedly from an
  /// unchanged state (shot batches between gates) should hold onto this
  /// instead of calling `sample` per batch.
  CdfSampler make_sampler() const {
    std::vector<double> cdf(amps_.size());
    double acc = 0.0;
    for (std::size_t i = 0; i < amps_.size(); ++i) {
      acc += std::norm(std::complex<double>(amps_[i].real(), amps_[i].imag()));
      cdf[i] = acc;
    }
    return CdfSampler(std::move(cdf));
  }

  /// Sample one computational-basis outcome.
  std::size_t sample(Xoshiro256& rng) const { return sample(rng, 1)[0]; }

  /// Sample `shots` outcomes through a freshly built sampler handle. The
  /// single-shot overload routes through here, so multi-shot draws are
  /// identical to sequential single draws by construction.
  std::vector<std::size_t> sample(Xoshiro256& rng, std::uint64_t shots) const {
    return make_sampler().draw(rng, shots);
  }

 private:
  static bool controls_pass(std::uint64_t idx, std::uint64_t pos_mask, std::uint64_t neg_mask) {
    return (idx & pos_mask) == pos_mask && (idx & neg_mask) == 0;
  }

  void apply_1q(std::uint32_t q, const linalg::Matrix<c64>& m, std::uint64_t pos_mask,
                std::uint64_t neg_mask) {
    const std::uint64_t bit = std::uint64_t{1} << q;
    const complex_type m00(static_cast<T>(m(0, 0).real()), static_cast<T>(m(0, 0).imag()));
    const complex_type m01(static_cast<T>(m(0, 1).real()), static_cast<T>(m(0, 1).imag()));
    const complex_type m10(static_cast<T>(m(1, 0).real()), static_cast<T>(m(1, 0).imag()));
    const complex_type m11(static_cast<T>(m(1, 1).real()), static_cast<T>(m(1, 1).imag()));
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
      if ((i & bit) != 0) continue;
      if (!controls_pass(i, pos_mask, neg_mask)) continue;
      const std::uint64_t j = i | bit;
      const complex_type a0 = amps_[i];
      const complex_type a1 = amps_[j];
      amps_[i] = m00 * a0 + m01 * a1;
      amps_[j] = m10 * a0 + m11 * a1;
    }
  }

  void apply_swap(std::uint32_t q1, std::uint32_t q2, std::uint64_t pos_mask,
                  std::uint64_t neg_mask) {
    const std::uint64_t b1 = std::uint64_t{1} << q1;
    const std::uint64_t b2 = std::uint64_t{1} << q2;
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
      // Representative: q1 = 1, q2 = 0.
      if ((i & b1) == 0 || (i & b2) != 0) continue;
      if (!controls_pass(i, pos_mask, neg_mask)) continue;
      const std::uint64_t j = (i & ~b1) | b2;
      std::swap(amps_[i], amps_[j]);
    }
  }

  void apply_diagonal(const std::vector<std::uint32_t>& targets, const std::vector<c64>& diag,
                      bool adjoint, std::uint64_t pos_mask, std::uint64_t neg_mask) {
    const std::size_t k = targets.size();
    for (std::uint64_t i = 0; i < amps_.size(); ++i) {
      if (!controls_pass(i, pos_mask, neg_mask)) continue;
      std::uint64_t sub = 0;
      for (std::size_t t = 0; t < k; ++t) {
        if (i & (std::uint64_t{1} << targets[t])) sub |= std::uint64_t{1} << t;
      }
      c64 d = diag[sub];
      if (adjoint) d = std::conj(d);
      amps_[i] *= complex_type(static_cast<T>(d.real()), static_cast<T>(d.imag()));
    }
  }

  void apply_dense(const std::vector<std::uint32_t>& targets, const linalg::Matrix<c64>& m,
                   bool adjoint, std::uint64_t pos_mask, std::uint64_t neg_mask) {
    const std::size_t k = targets.size();
    const std::size_t sub_dim = std::size_t{1} << k;
    std::uint64_t target_mask = 0;
    for (auto q : targets) target_mask |= std::uint64_t{1} << q;

    std::vector<complex_type> scratch(sub_dim);
    std::vector<std::uint64_t> idx(sub_dim);
    for (std::uint64_t base = 0; base < amps_.size(); ++base) {
      if ((base & target_mask) != 0) continue;  // representative: targets all 0
      if (!controls_pass(base, pos_mask, neg_mask)) continue;
      for (std::size_t s = 0; s < sub_dim; ++s) {
        std::uint64_t off = 0;
        for (std::size_t t = 0; t < k; ++t) {
          if (s & (std::size_t{1} << t)) off |= std::uint64_t{1} << targets[t];
        }
        idx[s] = base | off;
        scratch[s] = amps_[idx[s]];
      }
      for (std::size_t r = 0; r < sub_dim; ++r) {
        std::complex<double> acc{};
        for (std::size_t s = 0; s < sub_dim; ++s) {
          const c64 mrs = adjoint ? std::conj(m(s, r)) : m(r, s);
          acc += mrs * std::complex<double>(scratch[s].real(), scratch[s].imag());
        }
        amps_[idx[r]] = complex_type(static_cast<T>(acc.real()), static_cast<T>(acc.imag()));
      }
    }
  }

  std::uint32_t num_qubits_;
  std::vector<complex_type> amps_;
};

/// Dense unitary of a circuit, built column-by-column (tests and small
/// block-encoding materializations).
inline linalg::Matrix<c64> circuit_unitary(const Circuit& circuit) {
  const std::size_t dim = std::size_t{1} << circuit.num_qubits();
  linalg::Matrix<c64> U(dim, dim);
  for (std::size_t j = 0; j < dim; ++j) {
    Statevector<double> sv(circuit.num_qubits());
    sv[0] = 0.0;
    sv[j] = 1.0;
    sv.apply(circuit);
    for (std::size_t i = 0; i < dim; ++i) {
      U(i, j) = std::complex<double>(sv[i].real(), sv[i].imag());
    }
  }
  return U;
}

}  // namespace mpqls::qsim
