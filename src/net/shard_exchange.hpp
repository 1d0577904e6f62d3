// The networked PeerChannel behind distributed shard-group solves: each
// pairwise exchange POSTs this rank's amplitude block to the peer
// daemon's /v1/shard/exchange as a kShardExchange frame, then blocks on
// the local ShardHub until the peer's mirrored POST lands (the daemon's
// route handler deposits it). The send side and the receive side are
// independent HTTP requests, so both ranks of a pair can post
// concurrently and neither end ever holds a connection open waiting.
//
// One channel serves one job on one rank: construction registers the
// shard group with the hub (what /v1/healthz reports), destruction
// clears any parked payloads and unregisters it. Like every
// PeerChannel, it is driven by the single solving thread — per-peer
// HttpClients are reused across exchanges without locking.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/http_client.hpp"
#include "qsim/exec/dist/peer_channel.hpp"
#include "service/request.hpp"

namespace mpqls::net {

class HttpPeerChannel : public qsim::exec::dist::PeerChannel {
 public:
  /// `shard` names this rank's place in the group; `hub` must outlive the
  /// channel (the daemon owns both). `body_cap` is the daemon's own
  /// request-body cap, the largest frame its peers may send it.
  /// `await_timeout` bounds how long an exchange waits for the peer's
  /// mirrored frame.
  HttpPeerChannel(service::ShardSpec shard, qsim::exec::dist::ShardHub& hub,
                  std::size_t body_cap, Deadlines deadlines = {},
                  std::chrono::milliseconds await_timeout = std::chrono::milliseconds(60000));
  ~HttpPeerChannel() override;

  HttpPeerChannel(const HttpPeerChannel&) = delete;
  HttpPeerChannel& operator=(const HttpPeerChannel&) = delete;

  void exchange(std::uint32_t peer, std::uint64_t seq, const void* send, void* recv,
                std::size_t bytes) override;
  std::size_t body_cap_bytes() const override { return body_cap_; }

 private:
  HttpClient& client_for(std::uint32_t peer);

  service::ShardSpec shard_;
  qsim::exec::dist::ShardHub& hub_;
  std::size_t body_cap_;
  Deadlines deadlines_;
  std::chrono::milliseconds await_timeout_;
  std::vector<std::unique_ptr<HttpClient>> clients_;  ///< per peer rank, lazy
};

}  // namespace mpqls::net
