#include "qsim/exec/dist/exchange_plan.hpp"

#include <algorithm>
#include <bit>
#include <complex>
#include <optional>
#include <utility>

#include "common/contracts.hpp"
#include "qsim/exec/compile.hpp"

namespace mpqls::qsim::exec::dist {

namespace {

using c64 = std::complex<double>;

std::uint64_t bit_of(std::uint32_t q) { return std::uint64_t{1} << q; }

std::vector<std::uint32_t> high_targets_of(const FusedOp& op, std::uint32_t local_qubits) {
  std::vector<std::uint32_t> out;
  for (auto q : op.targets) {
    if (q >= local_qubits) out.push_back(q);
  }
  return out;  // targets are sorted, so the filtered list stays sorted
}

std::uint32_t high_refs_of(const FusedOp& op, std::uint32_t num_qubits,
                           std::uint32_t local_qubits) {
  std::uint64_t refs = op.pos_mask | op.neg_mask;
  for (auto q : op.targets) refs |= bit_of(q);
  const std::uint64_t low_mask = (std::uint64_t{1} << local_qubits) - 1;
  refs &= ~low_mask;
  refs &= (num_qubits >= 64) ? ~std::uint64_t{0} : (bit_of(num_qubits) - 1);
  return static_cast<std::uint32_t>(std::popcount(refs));
}

/// Structural diagonality of a 1q/dense payload: every off-diagonal entry
/// is an exact 0 (fusion keeps exact zeros exact, so no tolerance).
bool payload_is_diagonal(const FusedOp& op) {
  if (op.kind == OpKind::kApply1q) return op.payload[1] == c64{} && op.payload[2] == c64{};
  if (op.kind != OpKind::kDense) return false;
  const std::size_t dim = std::size_t{1} << op.targets.size();
  for (std::size_t r = 0; r < dim; ++r) {
    for (std::size_t c = 0; c < dim; ++c) {
      if (r != c && op.entry(r, c) != c64{}) return false;
    }
  }
  return true;
}

/// Rewrite a structurally-diagonal kApply1q/kDense op as kDiagonal. The
/// diagonal kernel multiplies each amplitude by the identical double
/// entry the 1q/dense kernel would (the off-diagonal terms it drops are
/// exact zeros), so demotion is value-preserving.
FusedOp demote_to_diagonal(FusedOp op) {
  if (op.kind == OpKind::kApply1q) {
    op.payload = {op.payload[0], op.payload[3]};
  } else {
    const std::size_t dim = std::size_t{1} << op.targets.size();
    std::vector<c64> diag(dim);
    for (std::size_t r = 0; r < dim; ++r) diag[r] = op.entry(r, r);
    op.payload = std::move(diag);
  }
  op.kind = OpKind::kDiagonal;
  op.adjoint = false;
  return op;
}

bool is_exact_x(const FusedOp& op) {
  return op.kind == OpKind::kApply1q && op.payload[0] == c64{} && op.payload[3] == c64{} &&
         op.payload[1] == c64{1.0} && op.payload[2] == c64{1.0};
}

/// Diagonal-kind: an op whose matrix is diagonal in the computational
/// basis, i.e. one that commutes with the basis permutation a controlled-X
/// induces on the qubits it does not touch.
bool is_diagonal_kind(const FusedOp& op) {
  return op.kind == OpKind::kDiagonal || op.kind == OpKind::kGlobalPhase ||
         (op.kind == OpKind::kApply1q && payload_is_diagonal(op));
}

std::vector<std::uint32_t> mask_qubits(std::uint64_t mask) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t q = 0; mask >> q; ++q) {
    if (mask & bit_of(q)) out.push_back(q);
  }
  return out;
}

/// X·D·X for a diagonal-kind D and an exact controlled-X: a mask-free
/// kDiagonal over the union qubit set whose entry at basis pattern s is
/// D's multiplier at the X-permuted pattern (target bit flipped where the
/// X's controls fire). Entries are copied, not recomputed, so every
/// amplitude keeps its exact multiplier. Returns nullopt when the union
/// grows impractically wide (the caller then keeps the X pair).
std::optional<FusedOp> conjugate_by_x(const FusedOp& d, const FusedOp& x) {
  if (d.kind == OpKind::kGlobalPhase) return d;  // commutes with any permutation
  const std::uint32_t x_target = x.targets[0];
  const std::uint64_t d_masks = d.pos_mask | d.neg_mask;
  std::uint64_t touched = d_masks | x.pos_mask | x.neg_mask | bit_of(x_target);
  for (auto q : d.targets) touched |= bit_of(q);
  // D untouched when it never reads the X target.
  std::uint64_t d_qubits = d_masks;
  for (auto q : d.targets) d_qubits |= bit_of(q);
  if ((d_qubits & bit_of(x_target)) == 0) return d;

  const auto qubits = mask_qubits(touched);
  if (qubits.size() > 12) return std::nullopt;  // 4096-entry payload cap
  const std::size_t dim = std::size_t{1} << qubits.size();

  // Position of each D target inside the union (targets ascending in both).
  std::vector<std::size_t> tpos;
  for (auto t : d.targets) {
    const auto it = std::lower_bound(qubits.begin(), qubits.end(), t);
    tpos.push_back(static_cast<std::size_t>(it - qubits.begin()));
  }

  FusedOp out;
  out.kind = OpKind::kDiagonal;
  out.targets = qubits;
  out.source_gates = d.source_gates;
  std::vector<c64> entries(dim);
  for (std::size_t s = 0; s < dim; ++s) {
    std::uint64_t pattern = 0;
    for (std::size_t i = 0; i < qubits.size(); ++i) {
      if (s & (std::size_t{1} << i)) pattern |= bit_of(qubits[i]);
    }
    const bool x_fires =
        (pattern & x.pos_mask) == x.pos_mask && (pattern & x.neg_mask) == 0;
    const std::uint64_t h = x_fires ? (pattern ^ bit_of(x_target)) : pattern;
    const bool d_fires = (h & d.pos_mask) == d.pos_mask && (h & d.neg_mask) == 0;
    if (!d_fires) {
      entries[s] = c64{1.0};
      continue;
    }
    if (d.kind == OpKind::kApply1q) {
      entries[s] = (h & bit_of(d.targets[0])) ? d.payload[3] : d.payload[0];
    } else {
      std::size_t sub = 0;
      for (std::size_t t = 0; t < tpos.size(); ++t) {
        if (h & bit_of(qubits[tpos[t]])) sub |= std::size_t{1} << t;
      }
      entries[s] = d.payload[sub];
    }
  }
  out.payload = std::move(entries);
  return out;
}

bool same_shape(const FusedOp& a, const FusedOp& b) {
  return a.targets == b.targets && a.pos_mask == b.pos_mask && a.neg_mask == b.neg_mask;
}

}  // namespace

ExchangePlan build_exchange_plan(const FusedIr& ir, std::uint32_t world_log2,
                                 const PlanOptions& options) {
  expects(world_log2 >= 1, "dist plan: need at least 2 shards");
  expects(world_log2 < ir.num_qubits, "dist plan: more shard bits than qubits");
  ExchangePlan plan;
  plan.num_qubits = ir.num_qubits;
  plan.world_log2 = world_log2;
  plan.local_qubits = ir.num_qubits - world_log2;
  const std::uint32_t m = plan.local_qubits;

  for (const auto& op : ir.ops) {
    if (op.kind != OpKind::kGlobalPhase) {
      plan.stats.naive_rounds += high_refs_of(op, ir.num_qubits, m);
    }
  }

  // Classification (+ pass 1, exact-diagonal demotion).
  std::vector<PlanOp> ops;
  ops.reserve(ir.ops.size());
  for (const auto& op : ir.ops) {
    PlanOp p;
    p.op = op;
    auto high = high_targets_of(op, m);
    if (!high.empty() && op.kind != OpKind::kDiagonal) {
      if (options.schedule && payload_is_diagonal(op)) {
        p.op = demote_to_diagonal(std::move(p.op));
        ++plan.stats.demoted_diagonal;
      } else {
        p.exchange = true;
        p.high_targets = std::move(high);
      }
    }
    ops.push_back(std::move(p));
  }

  // Pass 2: X-conjugation elimination, to fixpoint.
  if (options.schedule) {
    bool changed = true;
    while (changed) {
      changed = false;
      for (std::size_t i = 0; i < ops.size() && !changed; ++i) {
        if (!ops[i].exchange || !is_exact_x(ops[i].op)) continue;
        for (std::size_t j = i + 1; j < ops.size(); ++j) {
          if (ops[j].exchange) {
            if (!is_exact_x(ops[j].op) || !same_shape(ops[i].op, ops[j].op)) break;
            // Conjugate the sandwich; bail (keeping both X ops) if any
            // rewrite would blow the payload cap.
            std::vector<FusedOp> rewritten;
            bool ok = true;
            for (std::size_t s = i + 1; s < j; ++s) {
              auto conj = conjugate_by_x(ops[s].op, ops[i].op);
              if (!conj) {
                ok = false;
                break;
              }
              rewritten.push_back(std::move(*conj));
            }
            if (!ok) break;
            plan.stats.eliminated_exchanges += 2;
            plan.stats.conjugated_ops += rewritten.size();
            std::vector<PlanOp> next;
            next.reserve(ops.size() - 2);
            next.insert(next.end(), ops.begin(), ops.begin() + static_cast<std::ptrdiff_t>(i));
            for (auto& r : rewritten) {
              PlanOp p;
              p.op = std::move(r);
              next.push_back(std::move(p));
            }
            next.insert(next.end(), ops.begin() + static_cast<std::ptrdiff_t>(j) + 1, ops.end());
            ops = std::move(next);
            changed = true;
            break;
          }
          if (!is_diagonal_kind(ops[j].op)) break;  // non-diagonal local op blocks the scan
        }
      }
    }
  }

  for (const auto& p : ops) {
    if (p.exchange) plan.stats.scheduled_rounds += p.high_targets.size();
  }
  plan.ops = std::move(ops);
  return plan;
}

namespace {

/// Evaluate an op's partition-qubit control bits against one rank's
/// high-bit pattern; returns false when the op never fires on that shard.
bool high_masks_fire(std::uint64_t pos_mask, std::uint64_t neg_mask, std::uint64_t rank_pattern,
                     std::uint64_t high_mask) {
  const std::uint64_t hp = pos_mask & high_mask;
  const std::uint64_t hn = neg_mask & high_mask;
  return (rank_pattern & hp) == hp && (rank_pattern & hn) == 0;
}

}  // namespace

template <typename T>
RankProgram<T> specialize_rank(const ExchangePlan& plan, std::uint32_t rank) {
  expects(rank < (1u << plan.world_log2), "dist plan: rank out of range");
  const std::uint32_t m = plan.local_qubits;
  const std::uint64_t low_mask = (std::uint64_t{1} << m) - 1;
  const std::uint64_t high_mask = ((std::uint64_t{1} << plan.num_qubits) - 1) & ~low_mask;
  const std::uint64_t rank_pattern = std::uint64_t{rank} << m;

  RankProgram<T> rp;
  rp.num_qubits = plan.num_qubits;
  rp.local_qubits = m;
  rp.world_log2 = plan.world_log2;
  rp.rank = rank;

  RankStep<T> step;
  step.local.num_qubits = m;
  // One memo for every step: a rank's dense ops share their source
  // matrices' planes, which the plan owns for the whole call, and their
  // gather-offset tables.
  OpMemo<T> memo;

  for (const auto& p : plan.ops) {
    const FusedOp& op = p.op;
    if (!p.exchange) {
      if (!high_masks_fire(op.pos_mask, op.neg_mask, rank_pattern, high_mask)) {
        continue;  // shard never fires
      }
      FusedOp local = op;
      local.pos_mask &= low_mask;
      local.neg_mask &= low_mask;
      if (op.kind == OpKind::kDiagonal) {
        // Slice the payload down to the entries this rank's partition
        // bits select. Targets are ascending, so the low targets are a
        // prefix of the list and the high targets index the top payload
        // bits.
        std::uint32_t n_low = 0;
        while (n_low < op.targets.size() && op.targets[n_low] < m) ++n_low;
        const std::uint32_t n_high = static_cast<std::uint32_t>(op.targets.size()) - n_low;
        if (n_high > 0) {
          std::uint64_t fixed = 0;
          for (std::uint32_t j = 0; j < n_high; ++j) {
            const std::uint32_t q = op.targets[n_low + j];
            if ((rank >> (q - m)) & 1u) fixed |= std::uint64_t{1} << j;
          }
          std::vector<c64> sliced(std::size_t{1} << n_low);
          for (std::size_t s = 0; s < sliced.size(); ++s) {
            sliced[s] = op.payload[s | (fixed << n_low)];
          }
          local.targets.resize(n_low);
          if (n_low == 0) {
            // Every owned amplitude gets the same multiplier. Stay in the
            // diagonal kernel (dummy low target, identical entries) rather
            // than switching to the global-phase kernel: the multiply must
            // go through the same kernel expression as single-node replay
            // or FMA contraction can differ in the last ulp.
            local.targets = {0};
            sliced.push_back(sliced[0]);
          }
          local.payload = std::move(sliced);
        }
      }
      step.local.ops.push_back(specialize_op<T>(local, memo));
      ++step.local.stats.ops;
      continue;
    }

    // Exchange step: close the local run with the single wide op.
    const std::uint32_t h = static_cast<std::uint32_t>(p.high_targets.size());
    step.has_exchange = true;
    for (auto q : p.high_targets) step.peer_bits.push_back(q - m);
    // Non-target partition-qubit controls: shared across the 2^h partner
    // group (the group only varies the target bits), so one verdict
    // serves every member.
    std::uint64_t target_high = 0;
    for (auto q : p.high_targets) target_high |= bit_of(q);
    // Targets are never mask bits; belt and braces.
    FusedOp wide = op;
    wide.pos_mask = op.pos_mask & ~target_high;
    wide.neg_mask = op.neg_mask & ~target_high;
    step.fires = high_masks_fire(wide.pos_mask, wide.neg_mask, rank_pattern, high_mask);
    wide.pos_mask &= low_mask;
    wide.neg_mask &= low_mask;
    for (auto& q : wide.targets) {
      if (q >= m) {
        // The j-th high target lands on wide qubit m+j; ascending order
        // (and with it the payload's index convention) is preserved.
        const auto it = std::lower_bound(p.high_targets.begin(), p.high_targets.end(), q);
        q = m + static_cast<std::uint32_t>(it - p.high_targets.begin());
      }
    }
    step.wide.num_qubits = m + h;
    step.wide.stats.ops = 1;
    step.wide.ops.push_back(specialize_op<T>(wide, memo));
    rp.steps.push_back(std::move(step));
    step = RankStep<T>{};
    step.local.num_qubits = m;
  }
  rp.steps.push_back(std::move(step));
  return rp;
}

template RankProgram<float> specialize_rank<float>(const ExchangePlan&, std::uint32_t);
template RankProgram<double> specialize_rank<double>(const ExchangePlan&, std::uint32_t);

}  // namespace mpqls::qsim::exec::dist
