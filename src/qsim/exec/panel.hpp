// A batch of statevectors executed as one unit. `StatePanel<T>` holds B
// register copies ("lanes") in split real/imaginary structure-of-arrays
// layout with the lane index innermost: element (amplitude i, lane l)
// lives at re[i * B + l] / im[i * B + l]. Replaying one compiled program
// over the panel turns every gate application into a small matrix-panel
// product whose innermost loop is unit-stride over the lanes — the batch
// dimension vectorizes even when the amplitude enumeration of an op is
// strided or sparse (controlled gates, high-qubit targets), which is what
// makes multi-RHS replay cheaper than B sequential sweeps.
//
// Lanes are independent states: nothing in the layout couples them, and
// every reduction (norm, postselection probability) is computed per lane
// with its own accumulator in amplitude-index order, so each lane's
// result matches what a standalone Statevector<T> of the same amplitudes
// would produce (up to the usual vectorization-dependent rounding).
#pragma once

#include <cmath>
#include <complex>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"

namespace mpqls::qsim::exec {

template <typename T>
class StatePanel {
 public:
  /// B lanes of a 2^num_qubits register, every lane initialized to |0…0>.
  StatePanel(std::uint32_t num_qubits, std::size_t lanes)
      : num_qubits_(num_qubits),
        dim_(checked_dim(num_qubits)),  // validates before the planes allocate
        lanes_(lanes),
        re_(dim_ * lanes, T{}),
        im_(dim_ * lanes, T{}) {
    expects(lanes >= 1, "panel: at least one lane");
    for (std::size_t l = 0; l < lanes_; ++l) re_[l] = T{1};
  }

  std::uint32_t num_qubits() const { return num_qubits_; }
  std::size_t dim() const { return dim_; }
  std::size_t lanes() const { return lanes_; }

  /// Raw plane storage — the contract the panel kernels run against.
  T* re() { return re_.data(); }
  T* im() { return im_.data(); }
  const T* re() const { return re_.data(); }
  const T* im() const { return im_.data(); }

  std::complex<double> amp(std::size_t index, std::size_t lane) const {
    return {static_cast<double>(re_[index * lanes_ + lane]),
            static_cast<double>(im_[index * lanes_ + lane])};
  }
  void set_amp(std::size_t index, std::size_t lane, std::complex<double> value) {
    re_[index * lanes_ + lane] = static_cast<T>(value.real());
    im_[index * lanes_ + lane] = static_cast<T>(value.imag());
  }

  /// Overwrite a lane with the embedding of a real vector: amplitude i is
  /// values[i] for i < values.size() and 0 above (the direct form of the
  /// KP-tree preparation circuit applied to |0…0>). The values are the
  /// caller's to normalize.
  void load_lane_real(std::size_t lane, const std::vector<double>& values) {
    expects(lane < lanes_, "panel: lane out of range");
    expects(values.size() <= dim_, "panel: vector wider than register");
    for (std::size_t i = 0; i < dim_; ++i) {
      re_[i * lanes_ + lane] = i < values.size() ? static_cast<T>(values[i]) : T{};
      im_[i * lanes_ + lane] = T{};
    }
  }

  /// Per-lane Euclidean norm. One coalesced pass over the panel; each
  /// lane accumulates in double in amplitude-index order (the same order
  /// Statevector<T>::norm uses below its parallel threshold).
  std::vector<double> lane_norms() const {
    std::vector<double> acc(lanes_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      const T* r = re_.data() + i * lanes_;
      const T* q = im_.data() + i * lanes_;
#pragma omp simd
      for (std::size_t l = 0; l < lanes_; ++l) {
        acc[l] += static_cast<double>(r[l]) * static_cast<double>(r[l]) +
                  static_cast<double>(q[l]) * static_cast<double>(q[l]);
      }
    }
    for (auto& a : acc) a = std::sqrt(a);
    return acc;
  }

  /// Per-lane probability that every qubit in `zeros` measures 0 and
  /// every qubit in `ones` measures 1.
  std::vector<double> probability_match(const std::vector<std::uint32_t>& zeros,
                                        const std::vector<std::uint32_t>& ones) const {
    const auto [zero_mask, one_mask] = masks(zeros, ones);
    std::vector<double> p(lanes_, 0.0);
    for (std::size_t i = 0; i < dim_; ++i) {
      if ((i & zero_mask) != 0 || (i & one_mask) != one_mask) continue;
      const T* r = re_.data() + i * lanes_;
      const T* q = im_.data() + i * lanes_;
#pragma omp simd
      for (std::size_t l = 0; l < lanes_; ++l) {
        p[l] += static_cast<double>(r[l]) * static_cast<double>(r[l]) +
                static_cast<double>(q[l]) * static_cast<double>(q[l]);
      }
    }
    return p;
  }

  /// Shorthand for the all-zeros postselection probability.
  std::vector<double> probability_all_zero(const std::vector<std::uint32_t>& qubits) const {
    return probability_match(qubits, {});
  }

  /// Project every lane onto the subspace where `zeros` measure 0 and
  /// `ones` measure 1, renormalizing each lane. Returns the per-lane
  /// pre-projection probabilities. Every lane must keep nonzero mass —
  /// the clean-path contract postselect_zero also enforces.
  std::vector<double> postselect(const std::vector<std::uint32_t>& zeros,
                                 const std::vector<std::uint32_t>& ones) {
    auto p = probability_match(zeros, ones);
    project(zeros, ones, p);
    return p;
  }

  /// The scaling half of postselect: zero every amplitude outside the
  /// matching subspace and scale lane l's survivors by 1/sqrt(p[l]),
  /// rounded to T once. `p` is each lane's pre-projection probability —
  /// this panel's own, or the allreduced total when the panel is one
  /// shard of a distributed register.
  void project(const std::vector<std::uint32_t>& zeros, const std::vector<std::uint32_t>& ones,
               const std::vector<double>& p) {
    expects(p.size() == lanes_, "panel project: one probability per lane");
    std::vector<T> inv(lanes_);
    for (std::size_t l = 0; l < lanes_; ++l) {
      expects(p[l] > 0.0, "panel postselect: zero-probability branch");
      inv[l] = static_cast<T>(1.0 / std::sqrt(p[l]));
    }
    const auto [zero_mask, one_mask] = masks(zeros, ones);
    for (std::uint64_t i = 0; i < dim_; ++i) {
      T* r = re_.data() + i * lanes_;
      T* q = im_.data() + i * lanes_;
      if ((i & zero_mask) == 0 && (i & one_mask) == one_mask) {
#pragma omp simd
        for (std::size_t l = 0; l < lanes_; ++l) {
          r[l] *= inv[l];
          q[l] *= inv[l];
        }
      } else {
        for (std::size_t l = 0; l < lanes_; ++l) {
          r[l] = T{};
          q[l] = T{};
        }
      }
    }
  }

 private:
  static std::size_t checked_dim(std::uint32_t num_qubits) {
    expects(num_qubits <= 30, "panel: too many qubits");
    return std::size_t{1} << num_qubits;
  }

  static std::pair<std::uint64_t, std::uint64_t> masks(const std::vector<std::uint32_t>& zeros,
                                                       const std::vector<std::uint32_t>& ones) {
    std::uint64_t zero_mask = 0, one_mask = 0;
    for (auto qb : zeros) zero_mask |= std::uint64_t{1} << qb;
    for (auto qb : ones) one_mask |= std::uint64_t{1} << qb;
    return {zero_mask, one_mask};
  }

  std::uint32_t num_qubits_;
  std::size_t dim_;
  std::size_t lanes_;
  std::vector<T> re_, im_;
};

}  // namespace mpqls::qsim::exec
