#include "net/http.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>

namespace mpqls::net {

namespace {

bool iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view trim_ows(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

// RFC 9110 token characters (method and header names).
bool is_token(std::string_view s) {
  if (s.empty()) return false;
  for (char c : s) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') ||
                    std::string_view("!#$%&'*+-.^_`|~").find(c) != std::string_view::npos;
    if (!ok) return false;
  }
  return true;
}

/// Strict non-negative decimal; false on empty/overflow/non-digits — the
/// difference between 400 and treating "Content-Length: 1e9" as zero.
bool parse_decimal(std::string_view s, std::size_t* out) {
  if (s.empty() || s.size() > 19) return false;
  std::size_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<std::size_t>(c - '0');
  }
  *out = v;
  return true;
}

/// Split the head into lines; returns false on a malformed line ending.
/// Lines are CRLF-separated; a bare LF is tolerated (hand-typed clients).
std::vector<std::string_view> split_lines(std::string_view head) {
  std::vector<std::string_view> lines;
  std::size_t start = 0;
  while (start < head.size()) {
    std::size_t nl = head.find('\n', start);
    if (nl == std::string_view::npos) {
      lines.push_back(head.substr(start));
      break;
    }
    std::size_t end = nl;
    if (end > start && head[end - 1] == '\r') --end;
    lines.push_back(head.substr(start, end - start));
    start = nl + 1;
  }
  return lines;
}

/// Shared head accumulation for both parsers: append up to the cap, find
/// the head terminator, and give back bytes consumed past it (body or
/// pipelined-next-message bytes). The EARLIEST of CRLFCRLF and the
/// tolerated bare LFLF wins — preferring one unconditionally would let a
/// later sequence inside the body bytes of the same read misframe an
/// LF-terminated head. Returns true when the head is complete; *overflow
/// reports a head longer than `max_head_bytes` before its blank line.
bool accumulate_head(std::string& head, std::string_view rest, std::size_t max_head_bytes,
                     std::size_t* used, bool* overflow) {
  *overflow = false;
  const std::size_t take = std::min(rest.size(), max_head_bytes + 4 - head.size());
  const std::size_t before = head.size();
  head.append(rest.substr(0, take));
  *used += take;
  // Resume the searches a few bytes back in case a terminator straddles
  // the previous chunk boundary.
  const std::size_t crlf = head.find("\r\n\r\n", before >= 3 ? before - 3 : 0);
  const std::size_t lflf = head.find("\n\n", before >= 1 ? before - 1 : 0);
  std::size_t terminator = std::string::npos;
  std::size_t term_len = 0;
  if (crlf != std::string::npos && (lflf == std::string::npos || crlf < lflf)) {
    terminator = crlf;
    term_len = 4;
  } else if (lflf != std::string::npos) {
    terminator = lflf;
    term_len = 2;
  }
  if (terminator == std::string::npos) {
    // Up to 3 trailing bytes may be a terminator the next read completes
    // ("\r\n\r"), so only a longer head is certainly over the cap; how
    // the bytes were split must not change the verdict.
    if (head.size() > max_head_bytes + 3) *overflow = true;
    return false;
  }
  const std::size_t head_end = terminator + term_len;
  *used -= head.size() - head_end;
  head.resize(head_end);
  if (head.size() > max_head_bytes + term_len) *overflow = true;
  return true;
}

/// Shared header-block parsing for requests and responses. Returns an
/// error message ("" on success) so each parser maps it to its own
/// failure channel.
std::string parse_header_lines(const std::vector<std::string_view>& lines, std::size_t first,
                               std::size_t max_headers, HeaderList* out) {
  for (std::size_t i = first; i < lines.size(); ++i) {
    const std::string_view line = lines[i];
    if (line.empty()) continue;  // trailing blank from the \r\n\r\n terminator
    if (out->size() >= max_headers) return "too many headers";
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos) return "header line missing ':'";
    const std::string_view name = line.substr(0, colon);
    if (!is_token(name)) return "malformed header name";
    const std::string_view value = trim_ows(line.substr(colon + 1));
    out->emplace_back(std::string(name), std::string(value));
  }
  return "";
}

}  // namespace

const std::string* find_header(const HeaderList& headers, std::string_view name) {
  for (const auto& [k, v] : headers) {
    if (iequals(k, name)) return &v;
  }
  return nullptr;
}

bool parse_limit_param(std::string_view query, std::size_t cap, std::size_t* out) {
  while (!query.empty()) {
    const auto amp = query.find('&');
    const std::string_view param = query.substr(0, amp);
    query.remove_prefix(amp == std::string_view::npos ? query.size() : amp + 1);
    if (param.rfind("limit=", 0) != 0) continue;
    std::size_t parsed = 0;
    const char* begin = param.data() + 6;
    const char* end = param.data() + param.size();
    const auto [ptr, ec] = std::from_chars(begin, end, parsed);
    if (ec != std::errc() || ptr != end) return false;
    *out = std::min(parsed, cap);
  }
  return true;
}

const char* status_reason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 202: return "Accepted";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 415: return "Unsupported Media Type";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 502: return "Bad Gateway";
    case 503: return "Service Unavailable";
    case 504: return "Gateway Timeout";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string to_wire(const HttpResponse& response) {
  std::string out;
  out.reserve(128 + response.body.size());
  out += "HTTP/1.1 ";
  out += std::to_string(response.status);
  out += ' ';
  out += status_reason(response.status);
  out += "\r\n";
  for (const auto& [k, v] : response.headers) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  out += "Content-Type: ";
  out += response.content_type;
  out += "\r\nContent-Length: ";
  out += std::to_string(response.body.size());
  out += "\r\nConnection: ";
  out += response.keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += response.body;
  return out;
}

std::string to_wire_request(const std::string& method, const std::string& target,
                            const std::string& host, const std::string& body,
                            const std::string& content_type, bool keep_alive,
                            const HeaderList& extra) {
  std::string out;
  out.reserve(128 + body.size());
  out += method;
  out += ' ';
  out += target;
  out += " HTTP/1.1\r\nHost: ";
  out += host;
  out += "\r\n";
  for (const auto& [k, v] : extra) {
    out += k;
    out += ": ";
    out += v;
    out += "\r\n";
  }
  if (!body.empty()) {
    out += "Content-Type: ";
    out += content_type;
    out += "\r\n";
  }
  out += "Content-Length: ";
  out += std::to_string(body.size());
  out += "\r\nConnection: ";
  out += keep_alive ? "keep-alive" : "close";
  out += "\r\n\r\n";
  out += body;
  return out;
}

// --- RequestParser ----------------------------------------------------------

void RequestParser::fail(int status, std::string message) {
  state_ = ParseState::kError;
  error_status_ = status;
  error_message_ = std::move(message);
}

void RequestParser::reset() {
  state_ = ParseState::kHead;
  head_.clear();
  body_expected_ = 0;
  request_ = HttpRequest{};
  error_status_ = 0;
  error_message_.clear();
}

std::size_t RequestParser::consume(std::string_view data) {
  std::size_t used = 0;
  while (used < data.size() && state_ != ParseState::kComplete && state_ != ParseState::kError) {
    const std::string_view rest = data.substr(used);
    if (state_ == ParseState::kHead) {
      // Accumulate until the blank line. The cap applies to the buffered
      // head, so a flood of header bytes errors out instead of growing.
      bool overflow = false;
      const bool complete =
          accumulate_head(head_, rest, limits_.max_head_bytes, &used, &overflow);
      if (overflow) {
        fail(431, "request head exceeds " + std::to_string(limits_.max_head_bytes) + " bytes");
        continue;
      }
      if (!complete) continue;
      parse_head();
    } else {  // kBody
      const std::size_t want = body_expected_ - request_.body.size();
      const std::size_t take = std::min(rest.size(), want);
      request_.body.append(rest.substr(0, take));
      used += take;
      if (request_.body.size() == body_expected_) state_ = ParseState::kComplete;
    }
  }
  return used;
}

void RequestParser::parse_head() {
  const auto lines = split_lines(head_);
  if (lines.empty() || lines[0].empty()) {
    fail(400, "empty request line");
    return;
  }

  // Request line: METHOD SP target SP HTTP/1.x
  const std::string_view line = lines[0];
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = sp1 == std::string_view::npos ? sp1 : line.find(' ', sp1 + 1);
  if (sp1 == std::string_view::npos || sp2 == std::string_view::npos) {
    fail(400, "malformed request line");
    return;
  }
  const std::string_view method = line.substr(0, sp1);
  const std::string_view target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::string_view version = line.substr(sp2 + 1);
  if (!is_token(method)) {
    fail(400, "malformed method");
    return;
  }
  if (target.empty() || target[0] != '/') {
    fail(400, "request target must be origin-form");
    return;
  }
  if (version == "HTTP/1.1") {
    request_.version_minor = 1;
  } else if (version == "HTTP/1.0") {
    request_.version_minor = 0;
  } else {
    fail(505, "unsupported HTTP version");
    return;
  }
  request_.method.assign(method);
  request_.target.assign(target);
  const std::size_t q = target.find('?');
  request_.path.assign(target.substr(0, q));
  request_.query.assign(q == std::string_view::npos ? std::string_view{} : target.substr(q + 1));

  const std::string err = parse_header_lines(lines, 1, limits_.max_headers, &request_.headers);
  if (!err.empty()) {
    fail(err == "too many headers" ? 431 : 400, err);
    return;
  }

  if (request_.header("Transfer-Encoding") != nullptr) {
    fail(501, "Transfer-Encoding is not supported; send Content-Length");
    return;
  }

  body_expected_ = 0;
  bool seen_content_length = false;
  for (const auto& [k, v] : request_.headers) {
    if (!iequals(k, "Content-Length")) continue;
    std::size_t n = 0;
    if (!parse_decimal(v, &n)) {
      fail(400, "malformed Content-Length");
      return;
    }
    if (seen_content_length && n != body_expected_) {
      fail(400, "conflicting Content-Length headers");
      return;
    }
    seen_content_length = true;
    body_expected_ = n;
  }
  if (body_expected_ > limits_.max_body_bytes) {
    fail(413, "body of " + std::to_string(body_expected_) + " bytes exceeds limit of " +
                  std::to_string(limits_.max_body_bytes));
    return;
  }

  // keep-alive: 1.1 defaults on, 1.0 defaults off; Connection overrides.
  request_.keep_alive = request_.version_minor >= 1;
  if (const std::string* conn = request_.header("Connection")) {
    if (iequals(*conn, "close")) request_.keep_alive = false;
    if (iequals(*conn, "keep-alive")) request_.keep_alive = true;
  }

  head_.clear();
  // Reserve conservatively: Content-Length is attacker-controlled, and
  // committing max_body_bytes per connection from the header alone would
  // let idle connections pin memory they never send.
  request_.body.reserve(std::min(body_expected_, std::size_t{64} << 10));
  state_ = body_expected_ == 0 ? ParseState::kComplete : ParseState::kBody;
}

// --- ResponseParser ---------------------------------------------------------

void ResponseParser::fail(std::string message) {
  state_ = ParseState::kError;
  error_message_ = std::move(message);
}

void ResponseParser::reset() {
  state_ = ParseState::kHead;
  head_.clear();
  body_expected_ = 0;
  status_code_ = 0;
  headers_.clear();
  body_.clear();
  keep_alive_ = true;
  error_message_.clear();
}

std::size_t ResponseParser::consume(std::string_view data) {
  std::size_t used = 0;
  while (used < data.size() && state_ != ParseState::kComplete && state_ != ParseState::kError) {
    const std::string_view rest = data.substr(used);
    if (state_ == ParseState::kHead) {
      bool overflow = false;
      const bool complete =
          accumulate_head(head_, rest, limits_.max_head_bytes, &used, &overflow);
      if (overflow) {
        fail("response head too large");
        continue;
      }
      if (!complete) continue;
      parse_head();
    } else {  // kBody
      const std::size_t want = body_expected_ - body_.size();
      const std::size_t take = std::min(rest.size(), want);
      body_.append(rest.substr(0, take));
      used += take;
      if (body_.size() == body_expected_) state_ = ParseState::kComplete;
    }
  }
  return used;
}

void ResponseParser::parse_head() {
  const auto lines = split_lines(head_);
  if (lines.empty()) {
    fail("empty status line");
    return;
  }
  const std::string_view line = lines[0];
  // Status line: HTTP/1.x SP 3DIGIT SP reason
  if (line.substr(0, 7) != "HTTP/1." || line.size() < 12 || line[8] != ' ') {
    fail("malformed status line");
    return;
  }
  std::size_t code = 0;
  if (!parse_decimal(line.substr(9, 3), &code) || code < 100 || code > 599) {
    fail("malformed status code");
    return;
  }
  status_code_ = static_cast<int>(code);

  const std::string err = parse_header_lines(lines, 1, limits_.max_headers, &headers_);
  if (!err.empty()) {
    fail(err);
    return;
  }

  body_expected_ = 0;
  if (const std::string* cl = find_header(headers_, "Content-Length")) {
    if (!parse_decimal(*cl, &body_expected_)) {
      fail("malformed Content-Length");
      return;
    }
    if (body_expected_ > limits_.max_body_bytes) {
      fail("response body exceeds limit");
      return;
    }
  }
  keep_alive_ = true;
  if (const std::string* conn = find_header(headers_, "Connection")) {
    if (iequals(*conn, "close")) keep_alive_ = false;
  }

  head_.clear();
  body_.reserve(std::min(body_expected_, std::size_t{64} << 10));
  state_ = body_expected_ == 0 ? ParseState::kComplete : ParseState::kBody;
}

}  // namespace mpqls::net
