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
// count of 2/4/8/16 unrolls them into straight-line SIMD. `run` dispatches
// on the panel's width (other widths take the generic runtime path); one
// lane has its own dense kernel, which vectorizes across each window's
// sub-dimension instead (see kernels.hpp).
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

#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "qsim/exec/kernels.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec {

template <typename T>
class PanelExecutor {
  /// Amplitudes load/store through the storage precision T but all kernel
  /// arithmetic happens in the compute precision C (float for the f16
  /// tier, T itself for float/double — where every cast below is a no-op
  /// and the generated code is unchanged).
  using C = exec_compute_t<T>;

 public:
  /// Apply every op of `program` to all lanes of `panel` in order. The
  /// program may be narrower than the register (mirrors
  /// Statevector::apply(Circuit)).
  void run(const Program<T>& program, StatePanel<T>& panel) const {
    expects((std::size_t{1} << program.num_qubits) <= panel.dim(),
            "panel exec: program wider than register");
    switch (panel.lanes()) {
      case 1: run_impl<1>(program, panel); break;
      case 2: run_impl<2>(program, panel); break;
      case 4: run_impl<4>(program, panel); break;
      case 8: run_impl<8>(program, panel); break;
      case 16: run_impl<16>(program, panel); break;
      default: run_impl<0>(program, panel); break;  // generic runtime width
    }
  }

 private:
  template <int kLanes>
  void run_impl(const Program<T>& program, StatePanel<T>& panel) const {
    T* re = panel.re();
    T* im = panel.im();
    const std::int64_t n = static_cast<std::int64_t>(panel.dim());
    const std::int64_t lanes = static_cast<std::int64_t>(panel.lanes());
    std::vector<C> scratch;  // shared by every dense op of the sweep
    for (const auto& op : program.ops) {
      kernels::panel_apply_op<kLanes>(op, re, im, n, lanes, scratch);
    }
  }
};

}  // namespace mpqls::qsim::exec
