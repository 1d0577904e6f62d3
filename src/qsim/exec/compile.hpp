// Circuit -> Program lowering. `lower_and_fuse` runs the precision-agnostic
// passes (gate -> matrix materialization, adjoint resolution, target
// sorting, single-qubit peephole fusion, <= k-qubit window fusion) and
// gives every application of one `unitary` gate the same shared matrix;
// `specialize<T>` rounds each distinct matrix to the execution precision
// once and precomputes the kernel index tables. `compile<T>` is the one-call
// front door and stamps the compile time into the program stats. The
// cached, lazily specialized programs of one context live in
// `ProgramSet` (program_set.hpp).
#pragma once

#include <complex>
#include <cstdint>
#include <map>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/timer.hpp"
#include "qsim/circuit.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec {

struct CompileOptions {
  /// Master switch for the fusion passes; off = one op per gate (the
  /// specialization and precomputed tables still apply).
  bool fuse = true;
  /// Fused dense windows cover at most this many qubits (targets and
  /// folded-in controls combined). 2^k scratch per thread, 4^k matrix.
  std::uint32_t max_fuse_qubits = 3;
};

/// Passes 1-2: lower gates to adjoint-resolved, target-sorted matrix ops
/// and fuse neighbours. Deterministic; no precision loss (all double).
/// Dense ops lowered from `unitary` gates with the same matrix object and
/// target order share one payload array; adjoint applications flag it.
FusedIr lower_and_fuse(const Circuit& circuit, const CompileOptions& options = {});

/// What one program has specialized so far, shared by all of its ops so
/// that a program holds one copy of each. Dense planes are keyed by the
/// source matrix's `payload.data()` and the op's `adjoint` flag: every op
/// that applies the same matrix the same way shares its planes, and a
/// program rounds each distinct (matrix, adjoint) pair once. The keys stay
/// valid because the IR or plan being specialized owns every source array
/// for as long as the memo is used. Gather-offset tables are keyed by the
/// op's target mask (sorted targets determine the table).
template <typename T>
struct DensePlanes {
  SharedArray<exec_compute_t<T>> re, im;
};
template <typename T>
struct OpMemo {
  std::map<std::pair<const std::complex<double>*, bool>, DensePlanes<T>> planes;
  std::unordered_map<std::uint64_t, SharedArray<std::uint64_t>> offsets;
};

/// Pass 3 for one op: round its payload to the *storage* precision T (then
/// hold it in the compute precision — identity for float/double,
/// binary16-round-then-widen-to-float for f16) and precompute its kernel
/// tables. Dense ops take their planes and gather offsets from `memo`,
/// building each only on its first use; an adjoint op's planes hold the
/// conjugate transpose, the matrix it applies. A dense matrix whose
/// imaginary entries all round to zero gets no imaginary plane, which
/// routes it to the real kernels. Diagonal ops keep the interleaved
/// entries.
template <typename T>
CompiledOp<T> specialize_op(const FusedOp& op, OpMemo<T>& memo) {
  using C = exec_compute_t<T>;
  // Model the QPU storing this value at precision T.
  const auto qround = [](double v) { return static_cast<C>(static_cast<T>(v)); };
  const auto& payload = op.payload;
  CompiledOp<T> c;
  c.kind = op.kind;
  c.pos_mask = op.pos_mask;
  c.neg_mask = op.neg_mask;
  c.set_mask = op.pos_mask;
  // Bits the kernel loop must skip: control bits always; target bits for
  // the pairwise/blockwise kinds (a diagonal visits targets in place).
  std::uint64_t skip = op.pos_mask | op.neg_mask;
  if (op.kind == OpKind::kApply1q || op.kind == OpKind::kDense) {
    for (auto q : op.targets) skip |= std::uint64_t{1} << q;
  }
  for (std::uint32_t q = 0; q < 64 && (skip >> q) != 0; ++q) {
    if (skip & (std::uint64_t{1} << q)) c.insert_bits.push_back(std::uint64_t{1} << q);
  }
  c.free_shift = static_cast<std::uint32_t>(c.insert_bits.size());
  switch (op.kind) {
    case OpKind::kApply1q:
      c.target_bit = std::uint64_t{1} << op.targets[0];
      c.m00 = std::complex<C>(qround(payload[0].real()), qround(payload[0].imag()));
      c.m01 = std::complex<C>(qround(payload[1].real()), qround(payload[1].imag()));
      c.m10 = std::complex<C>(qround(payload[2].real()), qround(payload[2].imag()));
      c.m11 = std::complex<C>(qround(payload[3].real()), qround(payload[3].imag()));
      break;
    case OpKind::kGlobalPhase:
      c.phase = std::complex<C>(qround(payload[0].real()), qround(payload[0].imag()));
      break;
    case OpKind::kDense:
    case OpKind::kDiagonal: {
      c.num_targets = static_cast<std::uint32_t>(op.targets.size());
      for (auto q : op.targets) {
        const std::uint64_t bit = std::uint64_t{1} << q;
        c.target_bits.push_back(bit);
        c.target_mask |= bit;
      }
      if (op.kind == OpKind::kDiagonal) {
        c.payload.reserve(payload.size());
        for (const auto& v : payload) c.payload.emplace_back(qround(v.real()), qround(v.imag()));
        break;
      }
      // Gather offsets: sub-state s lives at base | offsets[s].
      SharedArray<std::uint64_t>& offsets = memo.offsets[c.target_mask];
      if (offsets.empty()) {
        std::vector<std::uint64_t> table(std::size_t{1} << c.num_targets);
        for (std::size_t s = 0; s < table.size(); ++s) {
          for (std::uint32_t t = 0; t < c.num_targets; ++t) {
            if (s & (std::size_t{1} << t)) table[s] |= c.target_bits[t];
          }
        }
        offsets = std::move(table);
      }
      c.offsets = offsets;
      const auto [it, fresh] = memo.planes.try_emplace({payload.data(), op.adjoint});
      if (fresh) {
        const std::size_t dim = std::size_t{1} << c.num_targets;
        std::vector<C> re, im;
        re.reserve(payload.size());
        im.reserve(payload.size());
        bool real = true;
        for (std::size_t r = 0; r < dim; ++r) {
          for (std::size_t col = 0; col < dim; ++col) {
            const std::complex<double> v = op.entry(r, col);
            re.push_back(qround(v.real()));
            im.push_back(qround(v.imag()));
            real = real && im.back() == C{};
          }
        }
        it->second.re = std::move(re);
        if (!real) it->second.im = std::move(im);
      }
      c.payload_re = it->second.re;
      c.payload_im = it->second.im;
      break;
    }
  }
  return c;
}

/// Pass 3: `specialize_op` over every op of `ir`, with one memo for the
/// whole program.
template <typename T>
Program<T> specialize(const FusedIr& ir) {
  Program<T> program;
  program.num_qubits = ir.num_qubits;
  program.stats = ir.stats;
  program.ops.reserve(ir.ops.size());
  OpMemo<T> memo;
  for (const auto& op : ir.ops) program.ops.push_back(specialize_op<T>(op, memo));
  return program;
}

/// Lower, fuse and specialize in one step.
template <typename T>
Program<T> compile(const Circuit& circuit, const CompileOptions& options = {}) {
  Timer timer;
  auto program = specialize<T>(lower_and_fuse(circuit, options));
  program.stats.compile_seconds = timer.seconds();
  return program;
}

}  // namespace mpqls::qsim::exec
