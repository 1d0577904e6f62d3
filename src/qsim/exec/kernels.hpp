// The op kernels of every compiled replay: batched panels, one-lane
// panels (single right-hand sides) and distributed shards all run these
// bodies against split real/imaginary planes with the lane index
// innermost (see panel.hpp). Each kernel is one serial loop over
// amplitudes with a SIMD inner loop over lanes: parallelism lives one
// level up, where the service's solve pool replays independent panels on
// its own threads. A lane's result depends only on the program and on
// whether it ran alone or in a panel of >= 2 lanes, never on how many
// threads the process runs.
//
// Dense ops, which dominate QSVT replay (the block encoding is applied
// ~2d times), come in two forms. A complex matrix runs the complex
// kernels. A real one — specialize left its imaginary plane empty, as
// for the dense embedding of a real A — runs the real kernels, which skip
// the zero plane: half the multiply-adds. Both compute the output in
// register tiles (panel_dense_block). Complex ops round exactly as the
// row-at-a-time kernel did; real ops contract each product into an FMA
// and round differently from the complex form of the same matrix.
#pragma once

#include <algorithm>
#include <complex>
#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec::kernels {

/// Insert a zero at bit position `bit` (a single-bit mask) of a compacted
/// index: enumerates exactly the indices whose `bit` is 0.
inline std::uint64_t expand_at(std::uint64_t compact, std::uint64_t bit) {
  const std::uint64_t low = compact & (bit - 1);
  return ((compact ^ low) << 1) | low;
}

/// Map a compacted loop index to the amplitude index the op touches:
/// zeros inserted at every skipped bit (targets + controls, ascending),
/// then the positive-control bits set. Branch-free control handling.
template <typename T>
std::uint64_t expand_index(std::uint64_t compact, const CompiledOp<T>& op) {
  for (const auto bit : op.insert_bits) compact = expand_at(compact, bit);
  return compact | op.set_mask;
}

// Amplitudes load/store through the storage precision T but all kernel
// arithmetic happens in the compute precision exec_compute_t<T> (float for
// f16, T itself for float/double). The lane count is a template
// parameter (1, 2, 4, 8 or 16; PanelExecutor::run pads other widths):
// QSVT programs are dominated by heavily-controlled ops with short inner
// loops, and a compile-time lane count unrolls them into straight-line
// SIMD. Every kernel of width >= 2 does the same arithmetic per lane in
// the same order, so a lane's result does not depend on the width.

template <int kLanes, typename T>
void panel_apply_1q(const CompiledOp<T>& op, T* re, T* im, std::int64_t n) {
  using C = exec_compute_t<T>;
  constexpr std::int64_t lanes = kLanes;
  const std::uint64_t bit = op.target_bit;
  const std::int64_t pairs = n >> op.free_shift;
  // Below the lowest re-inserted bit, consecutive loop indices map to
  // consecutive amplitudes — and in the panel layout consecutive
  // amplitudes are contiguous blocks of `lanes` elements, so a chunk of C
  // pairs is one flat unit-stride run of C*lanes scalars per plane. (chunk
  // is a power of two and always divides `pairs`: there are at least
  // log2(chunk) free bits below every inserted bit.) One index expansion covers the whole run;
  // the batch dimension rides inside the same SIMD loop.
  const std::int64_t chunk =
      std::min<std::int64_t>(static_cast<std::int64_t>(op.insert_bits[0]), pairs);
  const std::int64_t flat = chunk * lanes;
  const C m00r = op.m00.real(), m00i = op.m00.imag();
  const C m01r = op.m01.real(), m01i = op.m01.imag();
  const C m10r = op.m10.real(), m10i = op.m10.imag();
  const C m11r = op.m11.real(), m11i = op.m11.imag();
  for (std::int64_t ii = 0; ii < pairs; ii += chunk) {
    const std::uint64_t i0 = expand_index(static_cast<std::uint64_t>(ii), op);
    const std::uint64_t i1 = i0 | bit;
    T* r0 = re + static_cast<std::int64_t>(i0) * lanes;
    T* q0 = im + static_cast<std::int64_t>(i0) * lanes;
    T* r1 = re + static_cast<std::int64_t>(i1) * lanes;
    T* q1 = im + static_cast<std::int64_t>(i1) * lanes;
#pragma omp simd
    for (std::int64_t j = 0; j < flat; ++j) {
      const C re0 = static_cast<C>(r0[j]), im0 = static_cast<C>(q0[j]);
      const C re1 = static_cast<C>(r1[j]), im1 = static_cast<C>(q1[j]);
      r0[j] = static_cast<T>(m00r * re0 - m00i * im0 + m01r * re1 - m01i * im1);
      q0[j] = static_cast<T>(m00r * im0 + m00i * re0 + m01r * im1 + m01i * re1);
      r1[j] = static_cast<T>(m10r * re0 - m10i * im0 + m11r * re1 - m11i * im1);
      q1[j] = static_cast<T>(m10r * im0 + m10i * re0 + m11r * im1 + m11i * re1);
    }
  }
}

/// A run of kWidth compute values as one GCC vector. Arithmetic on it is
/// element-wise, so every element goes through exactly the scalar
/// expression written, and a kernel's accumulators are register values
/// that the compiler does not spill the way it can elements of a local
/// array (which left one accumulator of a row group on the stack, its
/// every multiply-add waiting on a store-to-load round trip).
template <typename C, int kWidth>
struct Tile {
  typedef C type __attribute__((vector_size(kWidth * sizeof(C))));
};

/// Load one tile from `p` (any alignment of C).
template <typename V, typename C>
V load_tile(const C* p) {
  V v;
  std::memcpy(&v, p, sizeof(V));
  return v;
}

/// Dense block kernel for a compile-time lane count. The block's sub-state
/// is gathered into `x`, one row per s: the kLanes real parts, then the
/// kLanes imaginary parts. The output is then computed in register tiles
/// of at most 256 bits (8 floats or 4 doubles), each held across the whole
/// s loop, so each gathered row is loaded once per group of output rows
/// and each matrix entry once per tile step:
///  - complex matrices: rows in groups of 4, a tile of lanes for both the
///    real and the imaginary output (8 accumulators);
///  - real matrices (kReal, no imaginary plane): the real and imaginary
///    parts of a row transform alike, so the tile runs along the whole
///    gathered row — two tiles per step and rows in groups of 4 on wide
///    panels, one tile and rows in groups of 8 where the row fits one
///    register (8 accumulators either way). Each (row, s, lane) step is 2
///    multiply-adds instead of the complex form's 4.
/// kSub > 0 fixes the sub-dimension too, so the loops fully unroll (fused
/// windows); kSub == 0 takes it at run time (the wide block-encoding
/// windows, >= 16 rows).
///
/// Rounding: every output element accumulates the same expression in the
/// same s order at every width >= 2, so lane results do not depend on the
/// panel width. The complex form is the expression of the row-at-a-time
/// kernel it replaced, so complex ops round as before. The real form
/// contracts each product and sum into one FMA and so rounds differently
/// from the complex form of the same matrix.
template <int kLanes, int kSub, bool kReal, typename T>
void panel_dense_block(const CompiledOp<T>& op, T* __restrict__ re, T* __restrict__ im,
                       std::size_t sub_dim, std::int64_t bb, exec_compute_t<T>* __restrict__ x) {
  using C = exec_compute_t<T>;
  constexpr int kRow = 2 * kLanes;  // one gathered row: re lanes, then im lanes
  constexpr int kRegister = static_cast<int>(32 / sizeof(C));
  const int sub = kSub > 0 ? kSub : static_cast<int>(sub_dim);
  const std::uint64_t* offsets = op.offsets.data();
  const C* __restrict__ mre = op.payload_re.data();
  const C* __restrict__ mim = op.payload_im.data();
  const std::uint64_t base = expand_index(static_cast<std::uint64_t>(bb), op);
  for (int s = 0; s < sub; ++s) {
    const std::int64_t at = static_cast<std::int64_t>(base | offsets[s]) * kLanes;
#pragma omp simd
    for (std::int64_t l = 0; l < kLanes; ++l) {
      x[s * kRow + l] = static_cast<C>(re[at + l]);
      x[s * kRow + kLanes + l] = static_cast<C>(im[at + l]);
    }
  }
  if constexpr (kReal) {
    constexpr int kTile = std::min(kRow, kRegister);
    constexpr int kTiles = std::min(2, kRow / kTile);  // tiles per step
    constexpr int kGroup = 8 / kTiles;
    constexpr int kRows = kSub > 0 ? std::min(kGroup, kSub) : kGroup;
    using V = typename Tile<C, kTile>::type;
    for (int c0 = 0; c0 < kRow; c0 += kTiles * kTile) {
      for (int r0 = 0; r0 < sub; r0 += kRows) {
        V acc[kRows][kTiles] = {};
        for (int s = 0; s < sub; ++s) {
          V xs[kTiles];
          for (int t = 0; t < kTiles; ++t) xs[t] = load_tile<V>(x + s * kRow + c0 + t * kTile);
#pragma GCC unroll 8
          for (int g = 0; g < kRows; ++g) {
            const C m = mre[(r0 + g) * sub + s];
            for (int t = 0; t < kTiles; ++t) acc[g][t] += m * xs[t];
          }
        }
#pragma GCC unroll 8
        for (int g = 0; g < kRows; ++g) {
          const std::int64_t at = static_cast<std::int64_t>(base | offsets[r0 + g]) * kLanes;
          for (int t = 0; t < kTiles; ++t) {
            for (int l = 0; l < kTile; ++l) {
              const int c = c0 + t * kTile + l;
              (c < kLanes ? re[at + c] : im[at + c - kLanes]) = static_cast<T>(acc[g][t][l]);
            }
          }
        }
      }
    }
  } else {
    constexpr int kTile = std::min(kLanes, kRegister);
    constexpr int kRows = kSub > 0 ? std::min(4, kSub) : 4;
    using V = typename Tile<C, kTile>::type;
    for (int l0 = 0; l0 < kLanes; l0 += kTile) {
      for (int r0 = 0; r0 < sub; r0 += kRows) {
        V acc_re[kRows] = {};
        V acc_im[kRows] = {};
        for (int s = 0; s < sub; ++s) {
          const V xr = load_tile<V>(x + s * kRow + l0);
          const V xi = load_tile<V>(x + s * kRow + kLanes + l0);
#pragma GCC unroll 8
          for (int g = 0; g < kRows; ++g) {
            const C mr = mre[(r0 + g) * sub + s], mi = mim[(r0 + g) * sub + s];
            acc_re[g] += mr * xr - mi * xi;
            acc_im[g] += mr * xi + mi * xr;
          }
        }
#pragma GCC unroll 8
        for (int g = 0; g < kRows; ++g) {
          const std::int64_t at = static_cast<std::int64_t>(base | offsets[r0 + g]) * kLanes + l0;
          for (int l = 0; l < kTile; ++l) {
            re[at + l] = static_cast<T>(acc_re[g][l]);
            im[at + l] = static_cast<T>(acc_im[g][l]);
          }
        }
      }
    }
  }
}

/// One-lane dense block. With a single lane there is no lane loop to
/// vectorize, so the sub-state is gathered into split planes and each
/// output amplitude is one row·column inner product over contiguous
/// arrays, vectorized across the sub-dimension — the form that keeps the
/// 2^7-wide windows of dense-embedding programs in SIMD. A real matrix
/// streams its real plane only.
template <bool kReal, typename T>
void dense_block_one_lane(const CompiledOp<T>& op, T* re, T* im, std::size_t sub_dim,
                          std::int64_t bb, exec_compute_t<T>* sre, exec_compute_t<T>* sim) {
  using C = exec_compute_t<T>;
  const std::uint64_t* offsets = op.offsets.data();
  const C* mre = op.payload_re.data();
  const C* mim = op.payload_im.data();
  const std::uint64_t base = expand_index(static_cast<std::uint64_t>(bb), op);
  for (std::size_t s = 0; s < sub_dim; ++s) {
    sre[s] = static_cast<C>(re[base | offsets[s]]);
    sim[s] = static_cast<C>(im[base | offsets[s]]);
  }
  for (std::size_t r = 0; r < sub_dim; ++r) {
    const C* rre = mre + r * sub_dim;
    C acc_re{}, acc_im{};
    if constexpr (kReal) {
#pragma omp simd reduction(+ : acc_re, acc_im)
      for (std::size_t s = 0; s < sub_dim; ++s) {
        acc_re += rre[s] * sre[s];
        acc_im += rre[s] * sim[s];
      }
    } else {
      const C* rim = mim + r * sub_dim;
#pragma omp simd reduction(+ : acc_re, acc_im)
      for (std::size_t s = 0; s < sub_dim; ++s) {
        acc_re += rre[s] * sre[s] - rim[s] * sim[s];
        acc_im += rre[s] * sim[s] + rim[s] * sre[s];
      }
    }
    re[base | offsets[r]] = static_cast<T>(acc_re);
    im[base | offsets[r]] = static_cast<T>(acc_im);
  }
}

/// One dense block of `op` at a compile-time lane count and matrix kind,
/// gathered into `scratch` (2 * sub_dim * kLanes values).
template <int kLanes, bool kReal, typename T>
void dense_block(const CompiledOp<T>& op, T* re, T* im, std::size_t sub_dim, std::int64_t bb,
                 exec_compute_t<T>* scratch) {
  if constexpr (kLanes == 1) {
    dense_block_one_lane<kReal>(op, re, im, sub_dim, bb, scratch, scratch + sub_dim);
  } else {
    // Fused windows are <= 3 qubits by default and unroll fully; wider
    // payloads (a raised max_fuse_qubits, the block-encoding unitary)
    // loop over a run-time sub-dimension.
    switch (op.num_targets) {
      case 1: panel_dense_block<kLanes, 2, kReal>(op, re, im, sub_dim, bb, scratch); break;
      case 2: panel_dense_block<kLanes, 4, kReal>(op, re, im, sub_dim, bb, scratch); break;
      case 3: panel_dense_block<kLanes, 8, kReal>(op, re, im, sub_dim, bb, scratch); break;
      default: panel_dense_block<kLanes, 0, kReal>(op, re, im, sub_dim, bb, scratch); break;
    }
  }
}

template <int kLanes, typename T>
void panel_apply_dense(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                       std::vector<exec_compute_t<T>>& run_scratch) {
  using C = exec_compute_t<T>;
  const std::size_t sub_dim = std::size_t{1} << op.num_targets;
  const std::int64_t blocks = n >> op.free_shift;
  // Gathered sub-state: 2 * sub_dim * kLanes values (layout per kernel),
  // starting on a cache line. At malloc's 16-byte alignment an 8-lane
  // double row straddles two lines, every multiply-add of the row loop
  // splits a load, and where the buffer landed set a sweep's cost (the
  // n=64 dense-embedding program: 23.5 ms aligned, 29 ms at offset 48).
  const std::size_t values = 2 * sub_dim * kLanes;
  constexpr std::size_t kLine = 64;
  if (run_scratch.size() < values + kLine / sizeof(C)) {
    run_scratch.resize(values + kLine / sizeof(C));
  }
  void* start = run_scratch.data();
  std::size_t space = run_scratch.size() * sizeof(C);
  C* scratch = static_cast<C*>(std::align(kLine, values * sizeof(C), start, space));
  const bool real = op.payload_im.empty();
  for (std::int64_t bb = 0; bb < blocks; ++bb) {
    if (real) {
      dense_block<kLanes, true>(op, re, im, sub_dim, bb, scratch);
    } else {
      dense_block<kLanes, false>(op, re, im, sub_dim, bb, scratch);
    }
  }
}

template <int kLanes, typename T>
void panel_apply_diagonal(const CompiledOp<T>& op, T* re, T* im, std::int64_t n) {
  using C = exec_compute_t<T>;
  constexpr std::int64_t lanes = kLanes;
  const std::uint32_t k = op.num_targets;
  const std::int64_t count = n >> op.free_shift;  // firing amplitudes only
  const std::uint64_t* target_bits = op.target_bits.data();
  const std::complex<C>* d = op.payload.data();
  for (std::int64_t ii = 0; ii < count; ++ii) {
    const std::uint64_t i = expand_index(static_cast<std::uint64_t>(ii), op);
    std::uint64_t sub = 0;
    for (std::uint32_t t = 0; t < k; ++t) {
      if (i & target_bits[t]) sub |= std::uint64_t{1} << t;
    }
    const C dr = d[sub].real(), di = d[sub].imag();
    T* r = re + static_cast<std::int64_t>(i) * lanes;
    T* q = im + static_cast<std::int64_t>(i) * lanes;
#pragma omp simd
    for (std::int64_t l = 0; l < lanes; ++l) {
      const C ar = static_cast<C>(r[l]), ai = static_cast<C>(q[l]);
      r[l] = static_cast<T>(dr * ar - di * ai);
      q[l] = static_cast<T>(dr * ai + di * ar);
    }
  }
}

template <typename T>
void panel_apply_phase(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                       std::int64_t lanes) {
  using C = exec_compute_t<T>;
  const C pr = op.phase.real(), pi = op.phase.imag();
  const std::int64_t total = n * lanes;  // lanes are contiguous: one flat sweep
#pragma omp simd
  for (std::int64_t i = 0; i < total; ++i) {
    const C ar = static_cast<C>(re[i]), ai = static_cast<C>(im[i]);
    re[i] = static_cast<T>(pr * ar - pi * ai);
    im[i] = static_cast<T>(pr * ai + pi * ar);
  }
}

/// One op against a panel (the per-op body of PanelExecutor::run_impl).
template <int kLanes, typename T>
void panel_apply_op(const CompiledOp<T>& op, T* re, T* im, std::int64_t n,
                    std::vector<exec_compute_t<T>>& dense_scratch) {
  switch (op.kind) {
    case OpKind::kApply1q:
      panel_apply_1q<kLanes>(op, re, im, n);
      break;
    case OpKind::kDense:
      panel_apply_dense<kLanes>(op, re, im, n, dense_scratch);
      break;
    case OpKind::kDiagonal:
      panel_apply_diagonal<kLanes>(op, re, im, n);
      break;
    case OpKind::kGlobalPhase:
      panel_apply_phase(op, re, im, n, kLanes);
      break;
  }
}

}  // namespace mpqls::qsim::exec::kernels
