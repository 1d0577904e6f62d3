#include "qsim/exec/dist/peer_channel.hpp"

#include <algorithm>
#include <tuple>
#include <utility>

#include "common/contracts.hpp"

namespace mpqls::qsim::exec::dist {

void allreduce_sum(PeerChannel& channel, std::uint32_t rank, std::uint32_t world_log2,
                   std::uint64_t& seq, double* data, std::size_t count) {
  if (world_log2 == 0 || count == 0) return;
  std::vector<double> recv(count);
  for (std::uint32_t bit = 0; bit < world_log2; ++bit) {
    const std::uint32_t peer = rank ^ (1u << bit);
    channel.exchange(peer, seq++, data, recv.data(), count * sizeof(double));
    // Fixed combine order (lower rank's value first) so both sides of the
    // pair — and transitively all W ranks — compute the bitwise-identical
    // sum regardless of message arrival order.
    if ((rank & (1u << bit)) == 0) {
      for (std::size_t i = 0; i < count; ++i) data[i] = data[i] + recv[i];
    } else {
      for (std::size_t i = 0; i < count; ++i) data[i] = recv[i] + data[i];
    }
  }
}

std::size_t group_body_cap(PeerChannel& channel, std::uint32_t rank, std::uint32_t world_log2,
                           std::uint64_t& seq) {
  // Caps travel as doubles; 2^52 bytes is far past any request body and
  // keeps every value exactly representable.
  constexpr std::size_t kExact = std::size_t{1} << 52;
  std::vector<double> caps(std::size_t{1} << world_log2, 0.0);
  caps[rank] = static_cast<double>(std::min(channel.body_cap_bytes(), kExact));
  allreduce_sum(channel, rank, world_log2, seq, caps.data(), caps.size());
  return static_cast<std::size_t>(*std::min_element(caps.begin(), caps.end()));
}

// ---------------------------------------------------------------------------
// LocalPeerGroup
// ---------------------------------------------------------------------------

class LocalPeerGroup::Endpoint final : public PeerChannel {
 public:
  Endpoint(LocalPeerGroup* group, std::uint32_t rank) : group_(group), rank_(rank) {}

  void exchange(std::uint32_t peer, std::uint64_t seq, const void* send, void* recv,
                std::size_t bytes) override {
    group_->exchange(rank_, peer, seq, send, recv, bytes);
  }

 private:
  LocalPeerGroup* group_;
  std::uint32_t rank_;
};

LocalPeerGroup::LocalPeerGroup(std::uint32_t world, std::chrono::milliseconds timeout)
    : world_(world), timeout_(timeout) {
  expects(world >= 1 && (world & (world - 1)) == 0, "dist: world size must be a power of two");
}

std::shared_ptr<PeerChannel> LocalPeerGroup::channel(std::uint32_t rank) {
  expects(rank < world_, "dist: rank out of range");
  return std::make_shared<Endpoint>(this, rank);
}

void LocalPeerGroup::exchange(std::uint32_t me, std::uint32_t peer, std::uint64_t seq,
                              const void* send, void* recv, std::size_t bytes) {
  expects(peer < world_ && peer != me, "dist: invalid exchange peer");
  const Key mine{me, peer, seq};
  const Key theirs{peer, me, seq};
  std::unique_lock<std::mutex> lock(mutex_);
  deposits_[mine] = Deposit{send, bytes, false};
  cv_.notify_all();

  // Take the peer's deposit.
  const auto deadline = std::chrono::steady_clock::now() + timeout_;
  if (!cv_.wait_until(lock, deadline, [&] { return deposits_.count(theirs) != 0; })) {
    deposits_.erase(mine);
    throw DistTransportError("exchange timeout waiting for rank " + std::to_string(peer));
  }
  auto their_it = deposits_.find(theirs);
  if (their_it->second.bytes != bytes) {
    deposits_.erase(mine);
    throw DistTransportError("exchange size mismatch with rank " + std::to_string(peer));
  }
  std::memcpy(recv, their_it->second.data, bytes);
  their_it->second.consumed = true;
  cv_.notify_all();

  // Hold our send buffer valid until the peer has copied it out.
  if (!cv_.wait_until(lock, deadline, [&] {
        auto it = deposits_.find(mine);
        return it == deposits_.end() || it->second.consumed;
      })) {
    deposits_.erase(mine);
    throw DistTransportError("exchange timeout delivering to rank " + std::to_string(peer));
  }
  deposits_.erase(mine);
}

// ---------------------------------------------------------------------------
// ShardHub
// ---------------------------------------------------------------------------

bool ShardHub::deposit(std::uint64_t group, std::uint32_t from, std::uint64_t seq,
                       std::string payload) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (pending_bytes_ + payload.size() > max_pending_bytes_) return false;
  pending_bytes_ += payload.size();
  pending_[Key{group, from, seq}] = std::move(payload);
  cv_.notify_all();
  return true;
}

void ShardHub::await(std::uint64_t group, std::uint32_t from, std::uint64_t seq, void* recv,
                     std::size_t bytes, std::chrono::milliseconds timeout) {
  const Key key{group, from, seq};
  std::unique_lock<std::mutex> lock(mutex_);
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  if (!cv_.wait_until(lock, deadline, [&] { return pending_.count(key) != 0; })) {
    throw DistTransportError("no exchange frame from rank " + std::to_string(from) +
                             " (seq " + std::to_string(seq) + ") within deadline");
  }
  auto it = pending_.find(key);
  const std::string payload = std::move(it->second);
  pending_bytes_ -= payload.size();
  pending_.erase(it);
  lock.unlock();
  if (payload.size() != bytes) {
    throw DistTransportError("exchange frame from rank " + std::to_string(from) + " carries " +
                             std::to_string(payload.size()) + " bytes, expected " +
                             std::to_string(bytes));
  }
  std::memcpy(recv, payload.data(), bytes);
}

void ShardHub::clear_group(std::uint64_t group) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (std::get<0>(it->first) == group) {
      pending_bytes_ -= it->second.size();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

void ShardHub::register_group(GroupInfo info) {
  std::lock_guard<std::mutex> lock(mutex_);
  groups_[info.group] = std::move(info);
}

void ShardHub::unregister_group(std::uint64_t group) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    groups_.erase(group);
  }
  clear_group(group);
}

std::vector<ShardHub::GroupInfo> ShardHub::active_groups() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<GroupInfo> out;
  out.reserve(groups_.size());
  for (const auto& [id, info] : groups_) out.push_back(info);
  return out;
}

}  // namespace mpqls::qsim::exec::dist
