// The compiled programs of one QSVT context. `lower_and_fuse` runs once,
// up front, when the set is made; every program derived from that IR is
// built lazily on first request, at most once, and cached for the
// lifetime of the set:
//
//  * `get<T>()` — the single-node program of precision tier T;
//  * `plan(k)` — the exchange plan for W = 2^k shards;
//  * `rank_program<T>(k, rank)` — one rank's slice of that plan at tier T.
//
// The adaptive solver hops between tiers, every refinement round replays,
// and every shard-group job over a cached context runs, without compiling
// anything again: synthesis stays a one-off cost per matrix (arXiv
// 2502.02212, Sec. III-A), and the programs live and die with the context
// that owns the set. Thread-safe: every getter may race from many solve
// threads or shard groups (std::call_once per slot), which is what lets a
// shared-const `QsvtSolverContext` hand out programs on demand.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <tuple>
#include <utility>
#include <vector>

#include "common/contracts.hpp"
#include "common/timer.hpp"
#include "qsim/exec/compile.hpp"
#include "qsim/exec/dist/exchange_plan.hpp"
#include "qsim/exec/program.hpp"

namespace mpqls::qsim::exec {

/// A value built on first request, at most once, thread-safely.
template <typename V>
class OnceSlot {
 public:
  template <typename Build>
  const V& get(Build&& build) const {
    std::call_once(once_, [&] { value_ = build(); });
    return value_;
  }

 private:
  mutable std::once_flag once_;
  mutable V value_;
};

/// One slot per precision tier, selected by type: `std::get<OnceSlot<P<T>>>`.
template <template <typename> class P>
using PerTier = std::tuple<OnceSlot<P<float>>, OnceSlot<P<double>>>;

class ProgramSet {
 public:
  explicit ProgramSet(FusedIr ir) : ir_(std::move(ir)) {}

  const FusedIr& ir() const { return ir_; }

  /// The tier-T single-node program.
  template <typename T>
  const Program<T>& get() const {
    return std::get<OnceSlot<Program<T>>>(tiers_).get([&] {
      Timer timer;
      auto program = specialize<T>(ir_);
      program.stats.compile_seconds = ir_.stats.compile_seconds + timer.seconds();
      specializations_.fetch_add(1, std::memory_order_relaxed);
      return program;
    });
  }

  /// The exchange plan for W = 2^world_log2 shards.
  const dist::ExchangePlan& plan(std::uint32_t world_log2) const {
    return shards(world_log2).plan;
  }

  /// Rank `rank`'s tier-T program of the W = 2^world_log2 plan.
  template <typename T>
  const dist::RankProgram<T>& rank_program(std::uint32_t world_log2, std::uint32_t rank) const {
    const Shards& group = shards(world_log2);
    expects(rank < group.ranks.size(), "program set: rank out of range");
    return std::get<OnceSlot<dist::RankProgram<T>>>(group.ranks[rank]).get([&] {
      auto program = dist::specialize_rank<T>(group.plan, rank);
      rank_specializations_.fetch_add(1, std::memory_order_relaxed);
      return program;
    });
  }

  /// Test seams for the compile-once contract: how many single-node tiers,
  /// exchange plans and rank programs have been built so far. Repeated
  /// requests must not move them.
  std::uint64_t specializations() const { return specializations_.load(std::memory_order_relaxed); }
  std::uint64_t exchange_plans() const { return exchange_plans_.load(std::memory_order_relaxed); }
  std::uint64_t rank_specializations() const {
    return rank_specializations_.load(std::memory_order_relaxed);
  }

 private:
  /// Everything compiled for one world size.
  struct Shards {
    Shards(const FusedIr& ir, std::uint32_t world_log2)
        : plan(dist::build_exchange_plan(ir, world_log2)), ranks(std::size_t{1} << world_log2) {}
    dist::ExchangePlan plan;
    std::vector<PerTier<dist::RankProgram>> ranks;  ///< indexed by rank
  };

  const Shards& shards(std::uint32_t world_log2) const {
    expects(world_log2 < by_world_.size(), "program set: world size out of range");
    return *by_world_[world_log2].get([&] {
      auto group = std::make_unique<const Shards>(ir_, world_log2);
      exchange_plans_.fetch_add(1, std::memory_order_relaxed);
      return group;
    });
  }

  FusedIr ir_;
  /// The solver runs the float and double programs. The f16 slot stays only
  /// because bench/e2e/probes.hpp still builds and replays an f16 program.
  std::tuple<OnceSlot<Program<f16>>, OnceSlot<Program<float>>, OnceSlot<Program<double>>> tiers_;
  std::array<OnceSlot<std::unique_ptr<const Shards>>, 64> by_world_;  ///< indexed by world_log2
  mutable std::atomic<std::uint64_t> specializations_{0};
  mutable std::atomic<std::uint64_t> exchange_plans_{0};
  mutable std::atomic<std::uint64_t> rank_specializations_{0};
};

}  // namespace mpqls::qsim::exec
