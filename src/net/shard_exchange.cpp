#include "net/shard_exchange.hpp"

#include <string>
#include <string_view>

#include "common/contracts.hpp"
#include "net/http.hpp"
#include "wire/codec.hpp"

namespace mpqls::net {

namespace dist = qsim::exec::dist;

// A channel that does not report its cap is sized for a daemon left at
// its default request-body cap.
static_assert(dist::kExchangeBodyCapBytes == ParseLimits{}.max_body_bytes,
              "default shard body cap must track the default HTTP body cap");
static_assert(wire::kFrameHeaderBytes + 3 * sizeof(std::uint64_t) + sizeof(std::uint32_t) <=
                  dist::kExchangeEnvelopeBytes,
              "shard frame envelope outgrew its reserve");

HttpPeerChannel::HttpPeerChannel(service::ShardSpec shard, dist::ShardHub& hub,
                                 std::size_t body_cap, Deadlines deadlines,
                                 std::chrono::milliseconds await_timeout)
    : shard_(std::move(shard)),
      hub_(hub),
      body_cap_(body_cap),
      deadlines_(deadlines),
      await_timeout_(await_timeout),
      clients_(shard_.peers.size()) {
  expects(shard_.distributed(), "shard exchange: group of one needs no transport");
  expects(shard_.peers.size() == shard_.world, "shard exchange: one endpoint per rank");
  hub_.register_group({shard_.group, shard_.rank, shard_.world, shard_.peers});
}

HttpPeerChannel::~HttpPeerChannel() {
  hub_.clear_group(shard_.group);
  hub_.unregister_group(shard_.group);
}

HttpClient& HttpPeerChannel::client_for(std::uint32_t peer) {
  if (!clients_[peer]) {
    const std::string& endpoint = shard_.peers[peer];
    const auto colon = endpoint.rfind(':');
    if (colon == std::string::npos || colon + 1 == endpoint.size()) {
      throw dist::DistTransportError("bad peer endpoint for rank " + std::to_string(peer));
    }
    const int port = std::stoi(endpoint.substr(colon + 1));
    if (port < 1 || port > 65535) {
      throw dist::DistTransportError("bad peer port for rank " + std::to_string(peer));
    }
    clients_[peer] = std::make_unique<HttpClient>(
        endpoint.substr(0, colon), static_cast<std::uint16_t>(port), deadlines_);
  }
  return *clients_[peer];
}

void HttpPeerChannel::exchange(std::uint32_t peer, std::uint64_t seq, const void* send,
                               void* recv, std::size_t bytes) {
  if (peer >= shard_.world || peer == shard_.rank) {
    throw dist::DistTransportError("exchange peer rank out of range");
  }
  // Ship first, await second: the peer does the same, so both frames are
  // in flight before either side blocks on its hub.
  std::string frame = wire::encode_shard_exchange(
      shard_.group, shard_.rank, seq,
      std::string_view(static_cast<const char*>(send), bytes));
  try {
    const auto response =
        client_for(peer).post("/v1/shard/exchange", std::move(frame), wire::kContentType);
    if (response.status < 200 || response.status >= 300) {
      throw dist::DistTransportError("peer rank " + std::to_string(peer) +
                                     " refused exchange with status " +
                                     std::to_string(response.status));
    }
  } catch (const HttpError& e) {
    throw dist::DistTransportError("exchange with rank " + std::to_string(peer) + " failed: " +
                                   e.what());
  }
  hub_.await(shard_.group, peer, seq, recv, bytes, await_timeout_);
}

}  // namespace mpqls::net
