#include "qsim/exec/compile.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <complex>
#include <map>
#include <span>
#include <utility>

#include "common/contracts.hpp"

namespace mpqls::qsim::exec {

namespace {

using c64 = std::complex<double>;

std::uint64_t bit_of(std::uint32_t q) { return std::uint64_t{1} << q; }

// Row-major dense product a * b (both dim x dim).
std::vector<c64> mat_mul(std::span<const c64> a, std::span<const c64> b, std::size_t dim) {
  std::vector<c64> out(dim * dim);
  for (std::size_t i = 0; i < dim; ++i) {
    for (std::size_t l = 0; l < dim; ++l) {
      const c64 ail = a[i * dim + l];
      if (ail == c64{}) continue;
      for (std::size_t j = 0; j < dim; ++j) {
        out[i * dim + j] += ail * b[l * dim + j];
      }
    }
  }
  return out;
}

// Remap a payload indexed by `original` target order to ascending target
// order: new index bit i corresponds to qubit sorted[i].
std::uint64_t remap_index(std::uint64_t s, const std::vector<std::uint32_t>& original,
                          const std::vector<std::uint32_t>& sorted) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < sorted.size(); ++i) {
    if (s & (std::uint64_t{1} << i)) {
      const auto it = std::find(original.begin(), original.end(), sorted[i]);
      out |= std::uint64_t{1} << static_cast<std::size_t>(it - original.begin());
    }
  }
  return out;
}

// The matrices lowered so far, by (gate matrix, target order): every
// application of one unitary gate, adjoint or not, gets the same array.
using UnitaryKey = std::pair<const void*, std::vector<std::uint32_t>>;
using UnitaryPayloads = std::map<UnitaryKey, SharedArray<c64>>;

// Lower one gate into a node: payload materialized in double, targets
// ascending, controls as masks. Adjoints are resolved, except that an
// adjoint unitary shares the gate's array and sets the op's flag.
FusedOp lower(const Gate& g, UnitaryPayloads& unitaries) {
  FusedOp op;
  for (auto q : g.controls) op.pos_mask |= bit_of(q);
  for (auto q : g.neg_controls) op.neg_mask |= bit_of(q);
  switch (g.kind) {
    case GateKind::kGlobalPhase: {
      const c64 phase = std::exp(c64(0, g.adjoint ? -g.param : g.param));
      if (!g.controls.empty()) {
        // Controlled global phase == phase gate on one control, controlled
        // on the rest (same identity Circuit::controlled uses).
        op.kind = OpKind::kApply1q;
        op.targets = {g.controls[0]};
        op.pos_mask &= ~bit_of(g.controls[0]);
        op.payload = {1.0, 0.0, 0.0, phase};
      } else if (!g.neg_controls.empty()) {
        op.kind = OpKind::kApply1q;
        op.targets = {g.neg_controls[0]};
        op.neg_mask &= ~bit_of(g.neg_controls[0]);
        op.payload = {phase, 0.0, 0.0, 1.0};
      } else {
        op.kind = OpKind::kGlobalPhase;
        op.payload = {phase};
      }
      return op;
    }
    case GateKind::kSwap: {
      op.kind = OpKind::kDense;
      op.targets = {g.targets[0], g.targets[1]};
      std::sort(op.targets.begin(), op.targets.end());
      std::vector<c64> swap(16);
      swap[0 * 4 + 0] = 1.0;
      swap[1 * 4 + 2] = 1.0;
      swap[2 * 4 + 1] = 1.0;
      swap[3 * 4 + 3] = 1.0;
      op.payload = std::move(swap);
      return op;
    }
    case GateKind::kUnitary: {
      op.kind = OpKind::kDense;
      op.targets = g.targets;
      std::sort(op.targets.begin(), op.targets.end());
      op.adjoint = g.adjoint;
      SharedArray<c64>& shared = unitaries[UnitaryKey{g.matrix.get(), g.targets}];
      if (shared.empty()) {
        const auto& m = *g.matrix;
        const std::size_t dim = m.rows();
        if (g.targets == op.targets) {
          // Already target-sorted: share the gate's matrix instead of
          // copying it.
          shared = SharedArray<c64>(g.matrix, m.data(), dim * dim);
        } else {
          std::vector<c64> payload(dim * dim);
          for (std::size_t r = 0; r < dim; ++r) {
            const std::uint64_t rr = remap_index(r, g.targets, op.targets);
            for (std::size_t c = 0; c < dim; ++c) {
              payload[r * dim + c] = m(rr, remap_index(c, g.targets, op.targets));
            }
          }
          shared = std::move(payload);
        }
      }
      op.payload = shared;
      return op;
    }
    case GateKind::kDiagonal: {
      op.kind = OpKind::kDiagonal;
      op.targets = g.targets;
      std::sort(op.targets.begin(), op.targets.end());
      const auto& d = *g.diagonal;
      std::vector<c64> payload(d.size());
      for (std::size_t s = 0; s < d.size(); ++s) {
        const c64 v = d[remap_index(s, g.targets, op.targets)];
        payload[s] = g.adjoint ? std::conj(v) : v;
      }
      op.payload = std::move(payload);
      return op;
    }
    default: {
      op.kind = OpKind::kApply1q;
      op.targets = {g.targets[0]};
      const auto m = gate_matrix_1q(g.kind, g.param, g.adjoint);
      op.payload = {m(0, 0), m(0, 1), m(1, 0), m(1, 1)};
      return op;
    }
  }
}

// All register qubits an op touches (targets + control bits), ascending.
std::vector<std::uint32_t> touched_qubits(const FusedOp& op, std::uint32_t num_qubits) {
  std::vector<std::uint32_t> qs = op.targets;
  const std::uint64_t masks = op.pos_mask | op.neg_mask;
  for (std::uint32_t q = 0; q < num_qubits; ++q) {
    if (masks & bit_of(q)) qs.push_back(q);
  }
  std::sort(qs.begin(), qs.end());
  return qs;
}

// Dense matrix of `op` over the sorted superset `qubits` (which must
// contain every qubit op touches). Controls fold into the matrix: rows
// whose control bits are unsatisfied act as identity.
std::vector<c64> embed(const FusedOp& op, const std::vector<std::uint32_t>& qubits) {
  const std::size_t m = qubits.size();
  const std::size_t dim = std::size_t{1} << m;
  // Window bit i <-> register bit qubits[i].
  std::vector<std::uint64_t> window_bits(m);
  for (std::size_t i = 0; i < m; ++i) window_bits[i] = bit_of(qubits[i]);
  // Position of each op target inside the window.
  std::vector<std::size_t> tpos;
  for (auto t : op.targets) {
    const auto it = std::lower_bound(qubits.begin(), qubits.end(), t);
    expects(it != qubits.end() && *it == t, "exec: embed target outside window");
    tpos.push_back(static_cast<std::size_t>(it - qubits.begin()));
  }
  const std::size_t sub_dim = std::size_t{1} << tpos.size();

  std::vector<c64> out(dim * dim);
  for (std::size_t col = 0; col < dim; ++col) {
    // Register-bit pattern of this window basis state.
    std::uint64_t pattern = 0;
    for (std::size_t i = 0; i < m; ++i) {
      if (col & (std::size_t{1} << i)) pattern |= window_bits[i];
    }
    const bool fires =
        (pattern & op.pos_mask) == op.pos_mask && (pattern & op.neg_mask) == 0;
    if (!fires) {
      out[col * dim + col] = 1.0;
      continue;
    }
    std::size_t sub = 0;
    for (std::size_t t = 0; t < tpos.size(); ++t) {
      if (col & (std::size_t{1} << tpos[t])) sub |= std::size_t{1} << t;
    }
    switch (op.kind) {
      case OpKind::kGlobalPhase:
        out[col * dim + col] = op.payload[0];
        break;
      case OpKind::kDiagonal:
        out[col * dim + col] = op.payload[sub];
        break;
      case OpKind::kApply1q:
      case OpKind::kDense:
        for (std::size_t r = 0; r < sub_dim; ++r) {
          const c64 v = op.entry(r, sub);
          if (v == c64{}) continue;
          std::size_t row = col;
          for (std::size_t t = 0; t < tpos.size(); ++t) {
            const std::size_t b = std::size_t{1} << tpos[t];
            row = (r & (std::size_t{1} << t)) ? (row | b) : (row & ~b);
          }
          out[row * dim + col] = v;
        }
        break;
    }
  }
  return out;
}

struct Window {
  std::vector<std::uint32_t> qubits;  ///< sorted union of node qubits; empty = closed
  std::vector<FusedOp> nodes;         ///< constituent nodes in circuit order

  bool open() const { return !qubits.empty(); }

  void clear() {
    qubits.clear();
    nodes.clear();
  }
};

// Per-amplitude kernel cost (flops + traffic, in "multiplies per
// amplitude" units) — what the fusion decision compares. The executor
// enumerates only the firing subspace, so c control bits divide an op's
// cost by 2^c; a dense op pays 2^k multiplies per amplitude it touches.
double op_cost(const FusedOp& op) {
  const int n_controls = std::popcount(op.pos_mask | op.neg_mask);
  const double masked = 1.0 / static_cast<double>(std::uint64_t{1} << std::min(n_controls, 40));
  switch (op.kind) {
    case OpKind::kGlobalPhase:
      return 1.0;
    case OpKind::kDiagonal:
      return masked * 1.0;
    case OpKind::kApply1q:
      return masked * 2.0;
    case OpKind::kDense:
      return masked * static_cast<double>(std::size_t{1} << op.targets.size());
  }
  return 1.0;
}

// Fused matrix of a node run over the window's qubit set.
std::vector<c64> fuse_nodes(const Window& w) {
  const std::size_t dim = std::size_t{1} << w.qubits.size();
  std::vector<c64> matrix;
  for (const auto& node : w.nodes) {
    auto node_m = embed(node, w.qubits);
    matrix = matrix.empty() ? std::move(node_m) : mat_mul(node_m, matrix, dim);
  }
  return matrix;
}

// An exactly-diagonal matrix keeps off-diagonal zeros exact under
// products, so this is a structural check, not a tolerance one.
bool is_diagonal(const std::vector<c64>& m, std::size_t dim) {
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (r != c && m[r * dim + c] != c64{}) return false;
    }
  }
  return true;
}

std::uint64_t greedy_depth(const FusedIr& ir) {
  std::vector<std::uint64_t> level(ir.num_qubits, 0);
  std::uint64_t depth = 0;
  for (const auto& op : ir.ops) {
    const auto qs = touched_qubits(op, ir.num_qubits);
    if (qs.empty()) continue;  // a global phase shares any layer
    std::uint64_t layer = 0;
    for (auto q : qs) layer = std::max(layer, level[q]);
    ++layer;
    for (auto q : qs) level[q] = layer;
    depth = std::max(depth, layer);
  }
  return depth;
}

}  // namespace

FusedIr lower_and_fuse(const Circuit& circuit, const CompileOptions& options) {
  FusedIr ir;
  ir.num_qubits = circuit.num_qubits();
  ir.stats.source_gates = circuit.size();
  const std::uint32_t max_window = std::max<std::uint32_t>(1, options.max_fuse_qubits);

  Window window;
  UnitaryPayloads unitaries;

  auto emit = [&](FusedOp op) {
    // Peephole: merge into the previous op when it is the same-shaped
    // single-qubit / diagonal op (identical target set and control masks).
    if (options.fuse && !ir.ops.empty()) {
      FusedOp& prev = ir.ops.back();
      if (op.kind == prev.kind && op.targets == prev.targets &&
          op.pos_mask == prev.pos_mask && op.neg_mask == prev.neg_mask) {
        if (op.kind == OpKind::kApply1q) {
          prev.payload = mat_mul(op.payload, prev.payload, 2);
          prev.source_gates += op.source_gates;
          return;
        }
        if (op.kind == OpKind::kDiagonal) {
          std::vector<c64> product(prev.payload.begin(), prev.payload.end());
          for (std::size_t i = 0; i < product.size(); ++i) product[i] *= op.payload[i];
          prev.payload = std::move(product);
          prev.source_gates += op.source_gates;
          return;
        }
      }
    }
    if (op.source_gates > 1) {
      ir.stats.max_fused_span =
          std::max<std::uint64_t>(ir.stats.max_fused_span, op.targets.size());
    }
    ir.ops.push_back(std::move(op));
  };

  // Flushing decides whether the accumulated run is cheaper fused (one
  // dense/diagonal op over the union) or emitted gate-wise: eagerly fusing
  // two cheap single-qubit passes into a 2^k-wide dense kernel would be a
  // pessimization, so the matrices are only merged when the cost model
  // says the fused kernel wins. Diagonal runs always fuse (a diagonal
  // kernel costs one multiply per amplitude no matter how many gates fed
  // it); the gate-wise fallback still benefits from the same-target
  // peephole inside emit().
  auto flush = [&] {
    if (!window.open()) return;
    Window w = std::move(window);
    window.clear();
    if (w.nodes.size() == 1) {
      emit(std::move(w.nodes.front()));
      return;
    }
    const std::size_t dim = std::size_t{1} << w.qubits.size();
    auto matrix = fuse_nodes(w);
    FusedOp fused;
    fused.targets = w.qubits;
    fused.source_gates = 0;
    for (const auto& node : w.nodes) fused.source_gates += node.source_gates;
    double nodes_cost = 0.0;
    for (const auto& node : w.nodes) nodes_cost += op_cost(node) + 0.25;
    if (w.qubits.size() == 1) {
      fused.kind = OpKind::kApply1q;
      fused.payload = std::move(matrix);
      emit(std::move(fused));
      return;
    }
    if (is_diagonal(matrix, dim)) {
      fused.kind = OpKind::kDiagonal;
      std::vector<c64> diagonal(dim);
      for (std::size_t r = 0; r < dim; ++r) diagonal[r] = matrix[r * dim + r];
      fused.payload = std::move(diagonal);
      emit(std::move(fused));
      return;
    }
    fused.kind = OpKind::kDense;
    fused.payload = std::move(matrix);
    if (op_cost(fused) + 0.25 <= nodes_cost) {
      emit(std::move(fused));
    } else {
      for (auto& node : w.nodes) emit(std::move(node));
    }
  };

  for (const Gate& g : circuit.gates()) {
    FusedOp node = lower(g, unitaries);
    if (!options.fuse) {
      emit(std::move(node));
      continue;
    }
    if (node.kind == OpKind::kGlobalPhase) {
      // Scalars ride along in any open window; standalone otherwise.
      if (window.open()) {
        window.nodes.push_back(std::move(node));
      } else {
        emit(std::move(node));
      }
      continue;
    }
    const auto node_qubits = touched_qubits(node, ir.num_qubits);
    if (window.open()) {
      std::vector<std::uint32_t> merged;
      std::set_union(window.qubits.begin(), window.qubits.end(), node_qubits.begin(),
                     node_qubits.end(), std::back_inserter(merged));
      if (merged.size() <= max_window) {
        window.qubits = std::move(merged);
        window.nodes.push_back(std::move(node));
        continue;
      }
      flush();
    }
    if (node_qubits.size() <= max_window) {
      window.qubits = node_qubits;
      window.nodes.push_back(std::move(node));
    } else {
      emit(std::move(node));
    }
  }
  flush();

  ir.stats.ops = ir.ops.size();
  ir.stats.fused_gates =
      ir.stats.source_gates > ir.stats.ops ? ir.stats.source_gates - ir.stats.ops : 0;
  ir.stats.depth = greedy_depth(ir);
  return ir;
}

}  // namespace mpqls::qsim::exec
