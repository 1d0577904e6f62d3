// Peer-to-peer amplitude transport for distributed statevector execution.
// A `PeerChannel` is one rank's endpoint into a shard group of W = 2^k
// workers: `exchange` is a full-duplex pairwise swap (both sides send and
// receive the same byte count, matched by a sequence number), which is the
// only communication primitive the distributed executor needs — high-qubit
// gates pair rank r with rank r ^ 2^(q-m), and the collectives below are
// butterflies of the same pairwise call.
//
// Two implementations:
//  * LocalPeerGroup — W in-process endpoints rendezvousing through a
//    shared mailbox. What the unit tests and bench/perf_dist_scaling use:
//    real plan + real kernels, no sockets.
//  * net::HttpPeerChannel (src/net/shard_exchange.hpp) — frames POSTed to
//    the peer daemon's /v1/shard/exchange, received through a ShardHub.
//
// Determinism contract: every rank must issue the same sequence of
// exchanges/collectives in the same order (they all replay the same plan),
// and `seq` must be strictly increasing per rank pair so delayed network
// frames can never satisfy a later round.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

namespace mpqls::qsim::exec::dist {

/// Transport failure (peer unreachable, deadline expired, group torn
/// down). The distributed solve fails with this message; the refinement
/// loop never sees a half-finished exchange.
class DistTransportError : public std::runtime_error {
 public:
  explicit DistTransportError(const std::string& what)
      : std::runtime_error("dist: " + what) {}
};

/// Largest exchange request body (envelope included) a receiving endpoint
/// accepts unless it reports otherwise: the daemon's default request-body
/// cap (net::ParseLimits; net/shard_exchange.cpp pins the two together
/// with a static_assert).
inline constexpr std::size_t kExchangeBodyCapBytes = std::size_t{8} << 20;
/// Frame envelope around the amplitude payload (frame header + group,
/// rank, seq and length fields), rounded up.
inline constexpr std::size_t kExchangeEnvelopeBytes = 64;

class PeerChannel {
 public:
  virtual ~PeerChannel() = default;

  /// Largest exchange request body this rank's receive side accepts. Ranks
  /// may differ; group_body_cap agrees on the group's smallest.
  virtual std::size_t body_cap_bytes() const { return kExchangeBodyCapBytes; }

  /// Full-duplex pairwise swap with `peer`: ship `bytes` from `send`,
  /// block until the peer's matching exchange (same seq, mirrored ranks,
  /// same byte count) lands in `recv`. Throws DistTransportError on
  /// timeout or byte-count mismatch; never returns partial data.
  virtual void exchange(std::uint32_t peer, std::uint64_t seq, const void* send, void* recv,
                        std::size_t bytes) = 0;
};

/// Deterministic butterfly allreduce-sum over all W = 2^k ranks: k
/// pairwise exchanges of the `count` doubles in `data`, combining at each
/// stage as lower-rank value + higher-rank value. The combine order is a
/// fixed binary tree over the rank order, so every rank finishes with the
/// bitwise-identical sum — the property that keeps the lockstep
/// refinement loop's control flow identical on every rank. `seq` is
/// advanced once per stage.
void allreduce_sum(PeerChannel& channel, std::uint32_t rank, std::uint32_t world_log2,
                   std::uint64_t& seq, double* data, std::size_t count);

/// The smallest body_cap_bytes() over all W = 2^k ranks, identical on
/// every rank: one allreduce_sum of a W-word vector holding each rank's
/// cap in its own slot (sums of one nonzero word and zeros are exact).
std::size_t group_body_cap(PeerChannel& channel, std::uint32_t rank, std::uint32_t world_log2,
                           std::uint64_t& seq);

/// W in-process channel endpoints over one shared mailbox. exchange()
/// deposits a pointer to the caller's send buffer and blocks until the
/// peer's matching deposit is copied out — zero sockets, full rendezvous
/// semantics, so executor/solver tests exercise the exact code path the
/// networked channel drives.
class LocalPeerGroup {
 public:
  explicit LocalPeerGroup(std::uint32_t world,
                          std::chrono::milliseconds timeout = std::chrono::milliseconds(60000));

  std::uint32_t world() const { return world_; }

  /// Endpoint for `rank`. The returned channel shares this group's
  /// lifetime bookkeeping: the group must outlive every endpoint.
  std::shared_ptr<PeerChannel> channel(std::uint32_t rank);

 private:
  struct Deposit {
    const void* data = nullptr;
    std::size_t bytes = 0;
    bool consumed = false;
  };
  /// (from, to, seq) -> pending deposit.
  using Key = std::tuple<std::uint32_t, std::uint32_t, std::uint64_t>;

  class Endpoint;

  void exchange(std::uint32_t me, std::uint32_t peer, std::uint64_t seq, const void* send,
                void* recv, std::size_t bytes);

  std::uint32_t world_;
  std::chrono::milliseconds timeout_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, Deposit> deposits_;
};

/// Rendezvous between an external transport's receive side and the
/// solving thread: the daemon deposits incoming exchange payloads keyed
/// by (group, from-rank, seq); the HttpPeerChannel awaits its
/// counterpart. Also the registry of active shard groups that
/// /v1/healthz reports.
class ShardHub {
 public:
  explicit ShardHub(std::size_t max_pending_bytes = std::size_t{256} << 20)
      : max_pending_bytes_(max_pending_bytes) {}

  /// Park one received payload. Returns false (payload dropped) when the
  /// pending-byte budget is exhausted — the awaiting side then times out
  /// and fails the solve instead of the process growing without bound.
  bool deposit(std::uint64_t group, std::uint32_t from, std::uint64_t seq, std::string payload);

  /// Block until the matching deposit arrives and copy it into `recv`.
  /// Throws DistTransportError on deadline or when the payload size does
  /// not match `bytes`.
  void await(std::uint64_t group, std::uint32_t from, std::uint64_t seq, void* recv,
             std::size_t bytes, std::chrono::milliseconds timeout);

  /// Drop every parked payload of `group` (job teardown).
  void clear_group(std::uint64_t group);

  struct GroupInfo {
    std::uint64_t group = 0;
    std::uint32_t rank = 0;
    std::uint32_t world = 1;
    std::vector<std::string> peers;  ///< "host:port" per rank
  };
  void register_group(GroupInfo info);
  void unregister_group(std::uint64_t group);
  std::vector<GroupInfo> active_groups() const;

 private:
  using Key = std::tuple<std::uint64_t, std::uint32_t, std::uint64_t>;

  std::size_t max_pending_bytes_;
  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::map<Key, std::string> pending_;
  std::size_t pending_bytes_ = 0;
  std::map<std::uint64_t, GroupInfo> groups_;
};

}  // namespace mpqls::qsim::exec::dist
