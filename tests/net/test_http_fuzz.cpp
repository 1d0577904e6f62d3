// Seeded mutation fuzz of the HTTP/1.x parsers. A corpus of valid messages
// — GET, POST with a body, pipelined pairs, LF-only heads, duplicate
// agreeing Content-Length — is mutated with bit flips, truncations,
// splices and boundary Content-Length values, and every input goes through
// RequestParser (what the daemon runs on untrusted socket bytes) and
// ResponseParser (what the coordinator and HttpClient run on worker
// answers). For every input:
//
//  * consume() never throws and never reports more bytes consumed than it
//    was given;
//  * each message ends kComplete with a body of exactly Content-Length
//    bytes, or kError (requests: with status 400, 413, 431, 501 or 505),
//    or the parser waits for more bytes having consumed every byte given;
//  * feeding the same bytes in random chunk sizes reaches the same
//    messages, state and status as one call.
//
// Inputs run under two limit sets: the defaults and a tight one whose caps
// the corpus messages straddle. Fixed seeds make every run feed the same
// bytes; inputs that once failed are kept as regression cases.
#include "net/http.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <exception>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/rng.hpp"
#include "common/timer.hpp"

namespace mpqls::net {
namespace {

const ParseLimits kTight{.max_head_bytes = 96, .max_headers = 4, .max_body_bytes = 16};

const std::vector<std::string> kRequests = {
    "GET /v1/healthz HTTP/1.1\r\nHost: x\r\n\r\n",
    "POST /v1/jobs HTTP/1.1\r\nHost: x\r\nContent-Type: application/json\r\n"
    "Content-Length: 11\r\n\r\n{\"id\": \"x\"}",
    "GET /v1/jobs?limit=2 HTTP/1.1\r\n\r\nPOST /v1/jobs HTTP/1.0\r\nContent-Length: 3\r\n"
    "Connection: keep-alive\r\n\r\nabc",
    "GET /v1/metrics HTTP/1.1\nHost: x\nConnection: close\n\n",
    "PUT /v1/matrices/m HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 5\r\n\r\nhello",
};

const std::vector<std::string> kResponses = {
    "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\n\r\n{}",
    "HTTP/1.1 204 No Content\r\n\r\n",
    "HTTP/1.1 202 Accepted\r\nContent-Length: 4\r\n\r\nabcdHTTP/1.1 404 Not Found\r\n"
    "Content-Length: 0\r\nConnection: close\r\n\r\n",
    "HTTP/1.0 413 Payload Too Large\nContent-Length: 3\n\nbig",
    "HTTP/1.1 200 OK\r\nContent-Length: 6\r\nContent-Length: 6\r\n\r\nabcdef",
};

/// Inputs that once broke a property, kept as fixed regression cases: a
/// head whose blank line arrives in a later chunk after the buffered bytes
/// passed the head cap, though the head itself fits.
std::vector<std::string> regression_requests() {
  std::string fits = "GET / HTTP/1.1\r\nX: ";
  fits += std::string(kTight.max_head_bytes - fits.size() - 2, 'a') + "\r\n\r\n";
  return {fits};
}

/// Content-Length values at and around every boundary the parsers check.
std::vector<std::string> boundary_lengths(const ParseLimits& limits) {
  return {"0",
          "1",
          std::to_string(limits.max_body_bytes - 1),
          std::to_string(limits.max_body_bytes),
          std::to_string(limits.max_body_bytes + 1),
          "9999999999999999999",
          "18446744073709551615",
          "99999999999999999999",
          "-1",
          "+5",
          "0x10",
          "1e3",
          "",
          " 7 ",
          "5, 5"};
}

/// What a parse of a byte stream produced: every complete message, in a
/// comparable form, then the state the stream ended in.
struct Outcome {
  std::vector<std::string> messages;
  ParseState state = ParseState::kHead;
  int status = 0;

  bool operator==(const Outcome&) const = default;
};

std::string describe(const HttpRequest& r) {
  std::string s = r.method + ' ' + r.target + " 1." + std::to_string(r.version_minor) +
                  (r.keep_alive ? " ka" : " close");
  for (const auto& [k, v] : r.headers) s += '|' + k + ':' + v;
  return s + '|' + r.body;
}

std::string describe(const ResponseParser& p) {
  std::string s = std::to_string(p.status()) + (p.keep_alive() ? " ka" : " close");
  for (const auto& [k, v] : p.headers()) s += '|' + k + ':' + v;
  return s + '|' + p.body();
}

/// Content-Length a complete message declared (the parsers accepted it, so
/// it is a plain decimal); 0 when absent.
std::size_t declared_length(const HeaderList& headers) {
  const std::string* cl = find_header(headers, "Content-Length");
  return cl ? static_cast<std::size_t>(std::stoull(*cl)) : 0;
}

bool is_request_error_status(int status) {
  return status == 400 || status == 413 || status == 431 || status == 501 || status == 505;
}

/// Parse the chunks as one byte stream of pipelined messages, checking the
/// per-call properties on the way.
template <typename Parser>
Outcome parse_stream(const std::vector<std::string_view>& chunks, const ParseLimits& limits) {
  Parser parser(limits);
  Outcome out;
  for (std::string_view rest : chunks) {
    while (!rest.empty()) {
      std::size_t used = 0;
      try {
        used = parser.consume(rest);
      } catch (const std::exception& e) {
        ADD_FAILURE() << "consume threw \"" << e.what() << "\"";
        return out;
      }
      if (used > rest.size()) {
        ADD_FAILURE() << "consumed " << used << " of " << rest.size() << " bytes";
        return out;
      }
      rest.remove_prefix(used);
      out.state = parser.state();
      if (out.state == ParseState::kComplete) {
        if constexpr (std::is_same_v<Parser, RequestParser>) {
          const HttpRequest& req = parser.request();
          EXPECT_EQ(req.body.size(), declared_length(req.headers));
          out.messages.push_back(describe(req));
        } else {
          EXPECT_EQ(parser.body().size(), declared_length(parser.headers()));
          out.messages.push_back(describe(parser));
        }
        parser.reset();
        out.state = ParseState::kHead;
        continue;
      }
      if (out.state == ParseState::kError) {
        if constexpr (std::is_same_v<Parser, RequestParser>) {
          out.status = parser.error_status();
          EXPECT_TRUE(is_request_error_status(out.status)) << "status " << out.status;
        }
        EXPECT_FALSE(parser.error_message().empty());
        return out;
      }
      // Still waiting for bytes: it must have taken every byte it got.
      if (!rest.empty()) {
        ADD_FAILURE() << "parser stalled with " << rest.size() << " bytes unconsumed";
        return out;
      }
    }
  }
  return out;
}

/// How many inputs ended each way, for the pass's coverage checks.
struct Tally {
  std::size_t complete = 0;
  std::size_t errors = 0;
  std::size_t waiting = 0;
};

/// Check one input: one call, then two random chunkings, must agree.
template <typename Parser>
void check(const std::string& input, const ParseLimits& limits, Xoshiro256& rng, Tally& tally) {
  const Outcome whole = parse_stream<Parser>({input}, limits);
  for (int pass = 0; pass < 2; ++pass) {
    std::vector<std::string_view> chunks;
    const std::size_t max_chunk = pass == 0 ? 1 : 1 + rng.uniform_index(24);
    for (std::size_t at = 0; at < input.size();) {
      const std::size_t len = std::min(input.size() - at, 1 + rng.uniform_index(max_chunk));
      chunks.push_back(std::string_view(input).substr(at, len));
      at += len;
    }
    EXPECT_TRUE(parse_stream<Parser>(chunks, limits) == whole)
        << "chunked parse disagrees with one call on input: " << input;
  }
  if (whole.state == ParseState::kError) {
    ++tally.errors;
  } else if (!whole.messages.empty()) {
    ++tally.complete;
  } else {
    ++tally.waiting;
  }
}

/// Replace every Content-Length value of `message` with `value`.
std::string with_content_length(std::string message, const std::string& value) {
  for (const char* name : {"Content-Length: ", "content-length: "}) {
    for (std::size_t at = message.find(name); at != std::string::npos;
         at = message.find(name, at + 1)) {
      const std::size_t begin = at + std::string_view(name).size();
      const std::size_t end = message.find_first_of("\r\n", begin);
      message.replace(begin, end - begin, value);
    }
  }
  return message;
}

template <typename Parser>
void fuzz(const std::vector<std::string>& corpus, std::uint64_t seed, const char* what) {
  Xoshiro256 rng(seed);
  const Timer timer;
  for (const ParseLimits& limits : {ParseLimits{}, kTight}) {
    Tally flips, truncations, splices, lengths;
    for (const auto& message : corpus) {
      for (int m = 0; m < 128; ++m) {
        std::string mutant = message;
        const auto count = 1 + rng.uniform_index(4);
        for (std::uint64_t k = 0; k < count; ++k) {
          mutant[rng.uniform_index(mutant.size())] ^=
              static_cast<char>(1u << rng.uniform_index(8));
        }
        check<Parser>(mutant, limits, rng, flips);
      }
      for (std::size_t len = 0; len <= message.size(); ++len) {
        check<Parser>(message.substr(0, len), limits, rng, truncations);
      }
      for (int m = 0; m < 64; ++m) {
        const std::string& other = corpus[rng.uniform_index(corpus.size())];
        check<Parser>(message.substr(0, rng.uniform_index(message.size() + 1)) +
                          other.substr(rng.uniform_index(other.size() + 1)),
                      limits, rng, splices);
      }
      for (const auto& value : boundary_lengths(limits)) {
        // Without and with enough body bytes for the declared length.
        const std::string head = with_content_length(message, value);
        check<Parser>(head, limits, rng, lengths);
        check<Parser>(head + std::string(64, 'z'), limits, rng, lengths);
      }
    }
    // Every pass must reach more than one outcome, or it tests little.
    for (const Tally* t : {&flips, &splices, &lengths}) {
      EXPECT_GT(t->complete, 0u) << what;
      EXPECT_GT(t->errors, 0u) << what;
    }
    EXPECT_GT(truncations.waiting, 0u) << what;
    std::printf("%s fuzz (head cap %zu): complete/error/waiting flips %zu/%zu/%zu, "
                "truncations %zu/%zu/%zu, splices %zu/%zu/%zu, lengths %zu/%zu/%zu\n",
                what, limits.max_head_bytes, flips.complete, flips.errors, flips.waiting,
                truncations.complete, truncations.errors, truncations.waiting,
                splices.complete, splices.errors, splices.waiting, lengths.complete,
                lengths.errors, lengths.waiting);
  }
  EXPECT_LT(timer.seconds(), 10.0) << what;
}

TEST(HttpFuzz, RequestParserHoldsItsContract) {
  auto corpus = kRequests;
  for (auto& input : regression_requests()) corpus.push_back(std::move(input));
  fuzz<RequestParser>(corpus, 0x4854'5450'0001ull, "request");
}

TEST(HttpFuzz, ResponseParserHoldsItsContract) {
  fuzz<ResponseParser>(kResponses, 0x4854'5450'0002ull, "response");
}

/// A head that fits the cap must parse however its bytes are split, even
/// when the bytes buffered before the blank line arrives exceed the cap.
TEST(HttpFuzz, HeadThatFitsTheCapParsesAcrossAnySplit) {
  const std::string wire = regression_requests()[0];
  ASSERT_LE(wire.size() - 4, kTight.max_head_bytes);
  ASSERT_GT(wire.size() - 1, kTight.max_head_bytes);
  for (std::size_t split = 1; split < wire.size(); ++split) {
    RequestParser parser(kTight);
    const std::string_view view(wire);
    const std::size_t first = parser.consume(view.substr(0, split));
    EXPECT_EQ(first, split);
    parser.consume(view.substr(split));
    EXPECT_EQ(parser.state(), ParseState::kComplete) << "split at " << split;
  }
}

}  // namespace
}  // namespace mpqls::net
