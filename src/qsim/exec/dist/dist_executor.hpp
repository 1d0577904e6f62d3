// Replays a rank-specialized plan against one shard: a `StatePanel<T>`
// over the m = n - k local qubits, one lane per right-hand side (global
// index g = (rank << m) | i). Local runs go through `PanelExecutor<T>::run`
// — the kernels a single-node B-lane panel replay executes, which makes
// the distributed path bitwise-comparable to single-node replay.
//
// An exchange step with h partition-qubit targets assembles the widened
// `StatePanel<T>(m + h, B)` register from the 2^h partner shards with an
// h-round butterfly allgather (round j swaps everything held so far with
// the partner across rank bit peer_bits[j]), applies the step's single
// wide op through the same `run` call (partition targets remapped to
// qubits m..m+h-1, so the wide pairs are exactly the global pairs), and
// copies this rank's slot back out. Every partner computes the full wide
// update — 2^h-fold redundant flops, but h <= max_fuse_qubits keeps that
// small and it buys zero post-exchange synchronization.
//
// Exchange payload layout: per slot, the re block then the im block, in
// the sender's ascending slot order (slot = the partition-target bit
// pattern the data belongs to — identical on both sides, so no further
// negotiation). Lanes are innermost, so a slot is one contiguous dim·B
// block and one frame carries every lane of it. The shard reductions at
// the bottom return partial per-lane sums for allreduce_sum.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <optional>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "qsim/exec/panel.hpp"
#include "qsim/exec/panel_executor.hpp"

namespace mpqls::qsim::exec::dist {

/// Cumulative counters for one or more replays (the mpqls_dist_* series).
struct DistRunMetrics {
  std::uint64_t exchange_rounds = 0;  ///< pairwise exchanges performed
  std::uint64_t bytes_moved = 0;      ///< bytes sent (the peer sends as many back)
  double exchange_seconds = 0.0;      ///< packing + transport + wide-op apply
  double local_seconds = 0.0;         ///< local-run kernel time
};

/// Widest shard panel: PanelExecutor's widest compiled lane count, so a
/// full shard group replays in one sweep with no pad lanes.
inline constexpr std::size_t kMaxShardLanes = kMaxCompiledLanes;

/// Lanes per shard panel for a tier group of `group` right-hand sides:
/// min(group, kMaxShardLanes), lowered (never below 1) until the largest
/// exchange frame of `rp` fits `body_cap`. Ranks passing the same cap
/// (group_body_cap) split a group identically.
template <typename T>
std::size_t shard_panel_lanes(const RankProgram<T>& rp, std::size_t group,
                              std::size_t body_cap) {
  std::size_t lanes = std::clamp<std::size_t>(group, 1, kMaxShardLanes);
  std::size_t max_h = 0;
  for (const auto& step : rp.steps) max_h = std::max(max_h, step.peer_bits.size());
  if (max_h == 0) return lanes;
  // The last butterfly round of an h-target step ships 2^(h-1) slots.
  const std::size_t per_lane = (std::size_t{1} << (max_h - 1)) *
                               (std::size_t{1} << rp.local_qubits) * 2 * sizeof(T);
  const std::size_t payload =
      body_cap > kExchangeEnvelopeBytes ? body_cap - kExchangeEnvelopeBytes : 0;
  return std::max<std::size_t>(1, std::min(lanes, payload / per_lane));
}

template <typename T>
void run_rank_program(const RankProgram<T>& rp, StatePanel<T>& shard, PeerChannel& channel,
                      std::uint64_t& seq, DistRunMetrics* metrics = nullptr) {
  expects(shard.num_qubits() == rp.local_qubits, "dist exec: plan/shard shape mismatch");
  const PanelExecutor<T> exec;
  const std::size_t block = shard.dim() * shard.lanes();  // one slot, every lane
  const std::size_t block_bytes = block * sizeof(T);
  std::vector<T> sendbuf, recvbuf;
  // Every slot of the wide register is overwritten by the allgather, so
  // one register serves every step of the same width.
  std::optional<StatePanel<T>> wide;

  for (const auto& step : rp.steps) {
    {
      Timer timer;
      exec.run(step.local, shard);
      if (metrics) metrics->local_seconds += timer.seconds();
    }
    if (!step.has_exchange) continue;
    if (!step.fires) {
      // Every rank must advance the sequence counter identically even when
      // its shard group skips the step, or a later exchange that crosses
      // groups pairs mismatched sequence numbers and deadlocks.
      seq += step.peer_bits.size();
      continue;
    }

    Timer timer;
    const std::uint32_t h = static_cast<std::uint32_t>(step.peer_bits.size());
    if (!wide || wide->num_qubits() != rp.local_qubits + h) {
      wide.emplace(rp.local_qubits + h, shard.lanes());
    }
    const auto slot_re = [&](std::uint32_t s) { return wide->re() + s * block; };
    const auto slot_im = [&](std::uint32_t s) { return wide->im() + s * block; };

    // My slot: the partition-target bits of this rank.
    std::uint32_t myslot = 0;
    for (std::uint32_t j = 0; j < h; ++j) {
      if ((rp.rank >> step.peer_bits[j]) & 1u) myslot |= 1u << j;
    }
    std::memcpy(slot_re(myslot), shard.re(), block_bytes);
    std::memcpy(slot_im(myslot), shard.im(), block_bytes);

    // Butterfly allgather of the partner shards.
    std::vector<std::uint32_t> held{myslot};
    for (std::uint32_t j = 0; j < h; ++j) {
      const std::uint32_t peer = rp.rank ^ (1u << step.peer_bits[j]);
      const std::size_t batch = held.size();
      sendbuf.resize(batch * block * 2);
      for (std::size_t i = 0; i < batch; ++i) {
        std::memcpy(sendbuf.data() + i * block * 2, slot_re(held[i]), block_bytes);
        std::memcpy(sendbuf.data() + i * block * 2 + block, slot_im(held[i]), block_bytes);
      }
      recvbuf.resize(batch * block * 2);
      const std::size_t bytes = batch * block_bytes * 2;
      channel.exchange(peer, seq++, sendbuf.data(), recvbuf.data(), bytes);
      // The peer's held set is mine mirrored across bit j, sent in its
      // ascending order; mirroring preserves the relative order of a set
      // whose members all share the same bit-j value.
      std::vector<std::uint32_t> theirs(batch);
      for (std::size_t i = 0; i < batch; ++i) theirs[i] = held[i] ^ (1u << j);
      std::sort(theirs.begin(), theirs.end());
      for (std::size_t i = 0; i < batch; ++i) {
        std::memcpy(slot_re(theirs[i]), recvbuf.data() + i * block * 2, block_bytes);
        std::memcpy(slot_im(theirs[i]), recvbuf.data() + i * block * 2 + block, block_bytes);
      }
      held.insert(held.end(), theirs.begin(), theirs.end());
      std::sort(held.begin(), held.end());
      if (metrics) {
        ++metrics->exchange_rounds;
        metrics->bytes_moved += bytes;
      }
    }

    exec.run(step.wide, *wide);
    std::memcpy(shard.re(), slot_re(myslot), block_bytes);
    std::memcpy(shard.im(), slot_im(myslot), block_bytes);
    if (metrics) metrics->exchange_seconds += timer.seconds();
  }
}

/// A postselection over global qubits as seen by rank `rank`'s shard of m
/// local qubits: the conditions on its local qubits, or nullopt when the
/// rank's own partition bits already violate one (no owned amplitude
/// matches).
struct ShardMasks {
  std::vector<std::uint32_t> zeros, ones;
};
inline std::optional<ShardMasks> shard_masks(std::uint32_t local_qubits, std::uint32_t rank,
                                             const std::vector<std::uint32_t>& zeros,
                                             const std::vector<std::uint32_t>& ones) {
  ShardMasks local;
  for (const bool want_one : {false, true}) {
    for (const auto q : want_one ? ones : zeros) {
      if (q < local_qubits) {
        (want_one ? local.ones : local.zeros).push_back(q);
      } else if ((((rank >> (q - local_qubits)) & 1u) != 0) != want_one) {
        return std::nullopt;
      }
    }
  }
  return local;
}

/// Partial per-lane probability that every qubit in `zeros` (global
/// indices) measures 0 and every qubit in `ones` measures 1. A rank whose
/// partition bits conflict with the masks contributes an exact 0.0, so the
/// allreduced total equals the single-node accumulation bitwise whenever
/// the matching subspace lives on one rank.
template <typename T>
std::vector<double> shard_probability_match(const StatePanel<T>& shard, std::uint32_t rank,
                                            const std::vector<std::uint32_t>& zeros,
                                            const std::vector<std::uint32_t>& ones) {
  const auto local = shard_masks(shard.num_qubits(), rank, zeros, ones);
  return local ? shard.probability_match(local->zeros, local->ones)
               : std::vector<double>(shard.lanes(), 0.0);
}

/// Postselect the shard with the *allreduced* per-lane probabilities `p`:
/// the same StatePanel::project arithmetic a single-node panel runs, so
/// every surviving amplitude is scaled bitwise identically.
template <typename T>
void shard_project(StatePanel<T>& shard, std::uint32_t rank,
                   const std::vector<std::uint32_t>& zeros,
                   const std::vector<std::uint32_t>& ones, const std::vector<double>& p) {
  if (const auto local = shard_masks(shard.num_qubits(), rank, zeros, ones)) {
    shard.project(local->zeros, local->ones, p);
  } else {
    const std::size_t size = shard.dim() * shard.lanes();
    std::fill(shard.re(), shard.re() + size, T{});
    std::fill(shard.im(), shard.im() + size, T{});
  }
}

}  // namespace mpqls::qsim::exec::dist
