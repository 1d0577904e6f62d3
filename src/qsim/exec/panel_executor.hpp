// Replays a compiled Program<T> against a StatePanel<T>: one sweep of the
// gate stream updates every lane. This is the only replay path for clean
// gate-level solves — a single right-hand side is a one-lane panel. The
// innermost loop runs over the panel's lane dimension, which is unit
// stride by construction. That turns the memory-bound per-RHS replay into
// small matrix–panel products: each gate's matrix entries and index
// expansions are paid once per amplitude block and applied to B lanes, so
// B right-hand sides cost one traversal of the program instead of B.
//
// The lane count is a template parameter of the kernel bodies: QSVT
// programs are dominated by heavily-controlled ops that enumerate only a
// handful of amplitudes, so the inner loops are short — a runtime trip
// count leaves them as scalar loop skeletons, while a compile-time lane
// count of 2/4/8/16 unrolls them into straight-line SIMD. Every sweep runs
// at one of the compiled widths 1, 2, 4, 8 and 16: `run` replays such a
// panel in place and walks any other width in chunks of at most 16 lanes,
// each gathered into a scratch panel of the next compiled width (never
// below 2), replayed, and scattered back. Pad lanes are zero and never
// leave `run`; their cost is one gather/scatter of the active lanes. Every
// kernel of width >= 2 does a lane's arithmetic in the same order, so a
// lane's result is bitwise independent of the panel width. One lane has
// its own dense kernel, which vectorizes across each window's
// sub-dimension instead and so rounds differently — hence the minimum
// pad width of 2 (see kernels.hpp).
//
// Dense ops run in register tiles of at most 256 bits (8 floats or 4
// doubles), and a real matrix (no imaginary plane) runs the real form,
// which skips the zero plane. Complex ops replay bitwise as before the
// tiled kernels; real ops round differently (one FMA per product). Dist
// ranks replay through this class too, so dist and single-node results
// stay bitwise equal.
//
// A replay runs on the calling thread; the lane loop is the SIMD
// dimension. Parallelism comes from replaying distinct panels on distinct
// threads (the service's solve pool), which the replayer allows: it is
// stateless and reentrant, so one program can be replayed from many
// threads at once.
//
// The op bodies live in qsim/exec/kernels.hpp; clean gate-level solves
// call `run` directly (qsvt/solve.cpp), with no dispatch layer between.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "qsim/exec/kernels.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec {

/// Widest compiled lane count; wider panels replay in chunks of this many.
inline constexpr std::size_t kMaxCompiledLanes = 16;

/// The compiled width a chunk of `count` <= 16 lanes replays at when the
/// panel's own width has no kernel: the next power of two, never below 2
/// (the one-lane kernel rounds differently).
constexpr std::size_t padded_width(std::size_t count) {
  return std::max<std::size_t>(2, std::bit_ceil(count));
}

template <typename T>
class PanelExecutor {
  /// Amplitudes load/store through the storage precision T but all kernel
  /// arithmetic happens in the compute precision C (float for f16, which
  /// only the bench/e2e f16 probe still runs; T itself for float/double —
  /// where every cast below is a no-op and the generated code is
  /// unchanged).
  using C = exec_compute_t<T>;

 public:
  /// Apply every op of `program` to all lanes of `panel` in order. The
  /// program may be narrower than the register (mirrors
  /// Statevector::apply(Circuit)).
  void run(const Program<T>& program, StatePanel<T>& panel) const {
    expects((std::size_t{1} << program.num_qubits) <= panel.dim(),
            "panel exec: program wider than register");
    if (run_compiled(program, panel)) return;
    const std::size_t lanes = panel.lanes();
    std::optional<StatePanel<T>> pad;
    for (std::size_t first = 0; first < lanes; first += kMaxCompiledLanes) {
      const std::size_t count = std::min(kMaxCompiledLanes, lanes - first);
      const std::size_t width = padded_width(count);
      if (!pad || pad->lanes() != width) pad.emplace(panel.num_qubits(), width);
      copy_lanes(panel, first, *pad, 0, count);
      for (std::size_t l = count; l < width; ++l) pad->load_lane_real(l, {});
      run_compiled(program, *pad);
      copy_lanes(*pad, 0, panel, first, count);
    }
  }

 private:
  /// Replay at the panel's own width if a kernel is compiled for it.
  bool run_compiled(const Program<T>& program, StatePanel<T>& panel) const {
    switch (panel.lanes()) {
      case 1: run_impl<1>(program, panel); return true;
      case 2: run_impl<2>(program, panel); return true;
      case 4: run_impl<4>(program, panel); return true;
      case 8: run_impl<8>(program, panel); return true;
      case 16: run_impl<16>(program, panel); return true;
      default: return false;
    }
  }

  template <int kLanes>
  void run_impl(const Program<T>& program, StatePanel<T>& panel) const {
    T* re = panel.re();
    T* im = panel.im();
    const std::int64_t n = static_cast<std::int64_t>(panel.dim());
    std::vector<C> scratch;  // shared by every dense op of the sweep
    for (const auto& op : program.ops) {
      kernels::panel_apply_op<kLanes>(op, re, im, n, scratch);
    }
  }

  /// Copy lanes [from, from + count) of `src` to lanes [to, to + count)
  /// of `dst`, amplitude by amplitude.
  static void copy_lanes(const StatePanel<T>& src, std::size_t from, StatePanel<T>& dst,
                         std::size_t to, std::size_t count) {
    const std::size_t sw = src.lanes(), dw = dst.lanes();
    for (std::size_t i = 0; i < src.dim(); ++i) {
      std::copy_n(src.re() + i * sw + from, count, dst.re() + i * dw + to);
      std::copy_n(src.im() + i * sw + from, count, dst.im() + i * dw + to);
    }
  }
};

}  // namespace mpqls::qsim::exec
