// Length-prefixed little-endian framing for the binary job protocol
// (Content-Type: application/x-mpqls-frame). A frame is a fixed 16-byte
// header followed by one payload:
//
//   offset  size  field
//   0       4     magic "MPQB" (0x42 0x51 0x50 0x4D little-endian u32)
//   4       1     version (kWireVersion; bumped on any layout change)
//   5       1     frame tag (FrameTag: what the payload is)
//   6       2     reserved, must be zero
//   8       8     payload byte length, little-endian u64
//   16      ...   payload (exactly the declared length; no trailing bytes)
//
// WireWriter/WireReader are the primitive layer: integers are serialized
// little-endian byte by byte (host-endianness independent), doubles as
// their IEEE-754 bit pattern, vectors as a u64 count plus raw f64s with a
// bulk memcpy fast path on little-endian hosts. Every read is
// bounds-checked BEFORE any allocation sized by untrusted input, and
// failures throw WireError carrying the byte offset — never the bytes
// themselves, so a 400 rendered from e.what() is safe to echo back on a
// text channel no matter what the body contained.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace mpqls::wire {

inline constexpr std::uint32_t kWireMagic = 0x4251504Du;  // "MPQB" on the wire
inline constexpr std::uint8_t kWireVersion = 3;  // v3: optional trace id appended to SolveRequest
// Oldest version this decoder still accepts. v3 only APPENDS fields to
// the request payload (the DESIGN.md append-only rule), so v2 frames
// decode unchanged — new fields take their defaults. Anything older or
// newer is rejected.
inline constexpr std::uint8_t kWireMinVersion = 2;
inline constexpr std::size_t kFrameHeaderBytes = 16;

/// What a frame's payload is. Unknown tags are a decode error, so new
/// payload kinds require a tag here plus a version discussion in DESIGN.md.
enum class FrameTag : std::uint8_t {
  kSolveRequest = 1,
  kSolveResult = 2,
  kMatrix = 3,
  kShardExchange = 4,  ///< peer-to-peer amplitude block in a shard-group solve
};

/// Malformed or truncated frame. The message names the violated rule and
/// the byte offset only — payload bytes never appear in it.
class WireError : public std::runtime_error {
 public:
  WireError(const std::string& what, std::size_t offset)
      : std::runtime_error("wire: " + what + " at byte " + std::to_string(offset)),
        offset_(offset) {}

  std::size_t offset() const { return offset_; }

 private:
  std::size_t offset_;
};

class WireWriter {
 public:
  WireWriter& u8(std::uint8_t v) {
    buf_.push_back(static_cast<char>(v));
    return *this;
  }
  WireWriter& u16(std::uint16_t v) { return le(v, 2); }
  WireWriter& u32(std::uint32_t v) { return le(v, 4); }
  WireWriter& u64(std::uint64_t v) { return le(v, 8); }
  WireWriter& i64(std::int64_t v) { return u64(static_cast<std::uint64_t>(v)); }
  WireWriter& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

  WireWriter& str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s.data(), s.size());
    return *this;
  }

  /// u64 count + raw little-endian doubles (bulk copy on LE hosts).
  WireWriter& f64_array(const double* data, std::size_t count) {
    u64(count);
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = buf_.size();
      buf_.resize(at + count * sizeof(double));
      std::memcpy(buf_.data() + at, data, count * sizeof(double));
    } else {
      for (std::size_t i = 0; i < count; ++i) f64(data[i]);
    }
    return *this;
  }

  std::size_t size() const { return buf_.size(); }
  std::string take() { return std::move(buf_); }

 private:
  WireWriter& le(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
    return *this;
  }

  std::string buf_;
};

class WireReader {
 public:
  explicit WireReader(std::string_view data, std::size_t base_offset = 0)
      : data_(data), base_(base_offset) {}

  std::size_t offset() const { return base_ + off_; }
  std::size_t remaining() const { return data_.size() - off_; }
  bool done() const { return off_ == data_.size(); }

  std::uint8_t u8() {
    need(1, "truncated u8");
    return static_cast<std::uint8_t>(data_[off_++]);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2, "truncated u16")); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4, "truncated u32")); }
  std::uint64_t u64() { return le(8, "truncated u64"); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(le(8, "truncated f64")); }

  /// u32 length + bytes; `max_len` caps the declared length before any
  /// copy, so a hostile 4 GiB string length dies at the check, not in the
  /// allocator.
  std::string str(std::size_t max_len) {
    const std::size_t at = offset();
    const std::uint32_t len = u32();
    if (len > max_len) throw WireError("string length over cap", at);
    need(len, "truncated string");
    std::string out(data_.substr(off_, len));
    off_ += len;
    return out;
  }

  /// u64 count + raw doubles into `out`; `max_count` is checked against
  /// BOTH the cap and the remaining bytes before the resize.
  void f64_array(std::vector<double>& out, std::size_t max_count) {
    const std::size_t at = offset();
    const std::uint64_t count = u64();
    if (count > max_count) throw WireError("array length over cap", at);
    need(count * sizeof(double), "truncated f64 array");
    out.resize(static_cast<std::size_t>(count));
    read_doubles(out.data(), static_cast<std::size_t>(count));
  }

  /// Raw bytes with an externally-validated count (shard-exchange
  /// payloads, whose declared length was already checked against the
  /// frame remainder).
  void read_bytes(char* out, std::size_t count) {
    need(count, "truncated byte block");
    std::memcpy(out, data_.data() + off_, count);
    off_ += count;
  }

  /// Raw doubles with an externally-validated count (matrix payloads,
  /// where rows*cols was already bounds-checked).
  void read_doubles(double* out, std::size_t count) {
    need(count * sizeof(double), "truncated f64 block");
    if (count == 0) return;  // an empty vector's data() may be null, which memcpy forbids
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(out, data_.data() + off_, count * sizeof(double));
      off_ += count * sizeof(double);
    } else {
      for (std::size_t i = 0; i < count; ++i) out[i] = f64();
    }
  }

  void expect_done() const {
    if (!done()) throw WireError("trailing bytes after payload", offset());
  }

 private:
  void need(std::size_t bytes, const char* what) const {
    if (data_.size() - off_ < bytes) throw WireError(what, offset());
  }

  std::uint64_t le(int bytes, const char* what) {
    need(static_cast<std::size_t>(bytes), what);
    std::uint64_t v = 0;
    for (int i = 0; i < bytes; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<unsigned char>(data_[off_ + i])) << (8 * i);
    }
    off_ += static_cast<std::size_t>(bytes);
    return v;
  }

  std::string_view data_;
  std::size_t base_;
  std::size_t off_ = 0;
};

/// Prepend the 16-byte header to a finished payload.
std::string seal_frame(FrameTag tag, std::string payload);

/// Validate the header of `frame` (magic, version within
/// [kWireMinVersion, kWireVersion], known tag, exact declared length)
/// and return the payload view plus its tag and negotiated version —
/// decoders branch on `version` to skip fields an older writer did not
/// emit. Throws WireError on any violation, including a zero-length
/// frame of a tag whose payload cannot be empty (every current tag).
struct FrameView {
  FrameTag tag;
  std::uint8_t version = kWireVersion;
  std::string_view payload;
};
FrameView open_frame(std::string_view frame);

/// Header check only: the tag of a well-formed frame header. Cheap enough
/// for content-negotiation branches that must not touch the payload.
FrameTag peek_tag(std::string_view frame);

}  // namespace mpqls::wire
