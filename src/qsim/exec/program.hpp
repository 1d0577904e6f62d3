// Executable circuit IR. A `Circuit` is an interpretable gate list; a
// `Program<T>` is what the execution engine actually runs: a flat sequence
// of precision-specialized ops whose matrices were materialized once (in
// the QPU precision T), whose control masks and gather offsets were
// precomputed, and whose neighbouring gates were fused by the compiler.
// Programs are immutable after compilation, so one compiled program can be
// replayed concurrently against many statevectors — the per-RHS hot path
// of the batched solver service.
//
// Two layers:
//  * `FusedIr` — the precision-agnostic output of the fusion pass
//    (double-precision matrices, sorted targets, controls as masks).
//  * `Program<T>` — the `FusedIr` specialized to a statevector precision,
//    with per-op kernels selected and index tables precomputed.
//
// Matrices are immutable `SharedArray`s: every op that applies the same
// block encoding refers to one array, and copying an op, an IR, a plan or
// a program copies no entries.
#pragma once

#include <complex>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

#include "linalg/half.hpp"

namespace mpqls::qsim::exec {

// Half-precision statevector storage. gcc/clang expose the native binary16
// type `_Float16` on x86-64 (F16C converts under -march=x86-64-v3); the
// software `linalg::half` is the fallback. The solver no longer runs an f16
// tier (a half request runs single; qsvt::resolve_tier). This alias,
// ExecTraits and the generic templates at f16 stay only because
// bench/e2e/probes.hpp still specializes and replays an f16 program; they
// go with the next change to that file.
#if defined(__FLT16_MAX__)
using f16 = _Float16;
#else
using f16 = linalg::half;
#endif

/// Storage precision vs compute precision. An f16 program stores amplitudes
/// in binary16 but computes in float: matrices and kernel arithmetic stay
/// fp32, only the statevector narrows. For float and double, storage ==
/// compute and nothing changes. Kept for the f16 probe (see f16 above).
template <typename T>
struct ExecTraits {
  using compute = T;
};
template <>
struct ExecTraits<f16> {
  using compute = float;
};
template <typename T>
using exec_compute_t = typename ExecTraits<T>::compute;

/// A read-only array shared by reference: copies share one immutable
/// buffer, which lives as long as its last holder. Default-constructed it
/// is empty, with a null data().
template <typename E>
class SharedArray {
 public:
  SharedArray() = default;
  SharedArray(std::vector<E> values) {  // NOLINT(google-explicit-constructor)
    auto owned = std::make_shared<const std::vector<E>>(std::move(values));
    size_ = owned->size();
    data_ = std::shared_ptr<const E>(owned, owned->data());
  }
  SharedArray(std::initializer_list<E> values) : SharedArray(std::vector<E>(values)) {}
  /// `size` entries at `data`, inside a buffer that `owner` keeps alive:
  /// shares an array another object already holds instead of copying it.
  SharedArray(std::shared_ptr<const void> owner, const E* data, std::size_t size)
      : data_(std::move(owner), data), size_(size) {}

  const E* data() const { return data_.get(); }
  std::size_t size() const { return size_; }
  bool empty() const { return size() == 0; }
  const E& operator[](std::size_t i) const { return data_.get()[i]; }
  const E* begin() const { return data(); }
  const E* end() const { return data() + size(); }

 private:
  std::shared_ptr<const E> data_;
  std::size_t size_ = 0;
};

enum class OpKind : std::uint8_t {
  kApply1q,      ///< 2x2 matrix on one target qubit
  kDense,        ///< dense 2^k x 2^k matrix on k sorted targets
  kDiagonal,     ///< diagonal payload (2^k entries) on k sorted targets
  kGlobalPhase,  ///< scalar multiplication of the whole register
};

/// One op of the precision-agnostic fused IR. Matrices are target-sorted
/// and, except for a dense op's `adjoint` flag, adjoint-resolved; controls
/// that did not fold into a fused matrix remain as bit masks.
/// `source_gates` counts the circuit gates this op absorbs.
struct FusedOp {
  OpKind kind = OpKind::kApply1q;
  std::uint64_t pos_mask = 0;  ///< fire when all these bits are 1
  std::uint64_t neg_mask = 0;  ///< fire when all these bits are 0
  std::vector<std::uint32_t> targets;  ///< sorted ascending
  /// kApply1q: 4 row-major entries; kDense: 2^k * 2^k row-major;
  /// kDiagonal: 2^k entries; kGlobalPhase: 1 entry (the scalar). Every
  /// dense op lowered from one `unitary` gate (same matrix and target
  /// order) shares one array, its adjoint applications included.
  SharedArray<std::complex<double>> payload;
  /// kDense only: the op applies the conjugate transpose of `payload`.
  /// Read entries through `entry`, which resolves it.
  bool adjoint = false;
  std::uint64_t source_gates = 1;

  /// Entry (r, c) of the matrix a kApply1q/kDense op applies.
  std::complex<double> entry(std::size_t r, std::size_t c) const {
    const std::size_t dim = std::size_t{1} << targets.size();
    return adjoint ? std::conj(payload[c * dim + r]) : payload[r * dim + c];
  }
};

struct ProgramStats {
  std::uint64_t source_gates = 0;  ///< gates in the compiled circuit
  std::uint64_t ops = 0;           ///< ops after fusion
  std::uint64_t fused_gates = 0;   ///< gates absorbed into another op (source - ops)
  std::uint64_t depth = 0;         ///< greedy qubit-availability depth of the ops
  std::uint64_t max_fused_span = 0;  ///< widest fused dense op (qubits)
  double compile_seconds = 0.0;
};

struct FusedIr {
  std::uint32_t num_qubits = 0;
  std::vector<FusedOp> ops;
  ProgramStats stats;
};

/// One executable op in precision T. Payload indexing mirrors FusedOp;
/// everything the kernel needs per amplitude-block is precomputed here.
/// Controls are compiled away entirely: `insert_bits`/`set_mask` let the
/// kernels enumerate exactly the amplitudes an op touches (positive
/// controls set, negative controls and target bits zero), so a gate with c
/// controls costs 2^-c of an uncontrolled sweep instead of a full sweep
/// with a mask branch per index.
template <typename T>
struct CompiledOp {
  /// Payloads live in the *compute* precision. For an f16 program the matrix
  /// entries are rounded through binary16 at specialization time (modelling
  /// the QPU's storage precision) but held widened to float so the kernels
  /// never do fp16 arithmetic.
  using C = exec_compute_t<T>;

  OpKind kind = OpKind::kApply1q;
  std::uint64_t pos_mask = 0;
  std::uint64_t neg_mask = 0;

  /// Sorted single-bit masks to re-insert as zeros when expanding a
  /// compacted loop index (target bits + control bits; control bits only
  /// for kDiagonal), then OR `set_mask` (the positive controls).
  std::vector<std::uint64_t> insert_bits;
  std::uint64_t set_mask = 0;
  std::uint32_t free_shift = 0;  ///< loop count = dim >> free_shift

  // kApply1q
  std::uint64_t target_bit = 0;
  std::complex<C> m00, m01, m10, m11;

  // kDense / kDiagonal
  std::uint32_t num_targets = 0;
  std::uint64_t target_mask = 0;
  std::vector<std::uint64_t> target_bits;  ///< sorted single-bit masks
  std::vector<std::complex<C>> payload;    ///< kDiagonal: the 2^k entries
  /// kDense: the row-major matrix split into real/imaginary planes, the
  /// only form the dense kernels read (the interleaved complex layout
  /// defeats SIMD). Ops whose source ops share a matrix share its planes:
  /// a program rounds each distinct matrix once. `payload_im` is empty
  /// when every imaginary entry rounds to zero in T (a real matrix, such
  /// as the dense embedding of a real A): the kernels then run the real
  /// form, two multiply-adds per entry and lane instead of four.
  SharedArray<C> payload_re, payload_im;
  /// kDense: the 2^k gather offsets, shared by every op of a program on
  /// the same targets.
  SharedArray<std::uint64_t> offsets;

  // kGlobalPhase
  std::complex<C> phase;
};

template <typename T>
struct Program {
  std::uint32_t num_qubits = 0;
  std::vector<CompiledOp<T>> ops;
  ProgramStats stats;

  bool empty() const { return ops.empty(); }
};

}  // namespace mpqls::qsim::exec
