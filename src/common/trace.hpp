// Request tracing for the serving stack: one `Trace` per job, filled
// with steady-clock `Span`s from whatever thread happens to be doing the
// work (event loop, job worker, solve pool), readable at any time from
// the `/v1/jobs/{id}/trace` handler without stopping the writers.
//
// Design constraints, in order:
//   1. Recording must be cheap enough to leave on for every job (the
//      tracing-overhead bench gates <=2% on the cached-service
//      workload): span slots are claimed with one relaxed fetch_add and
//      published with one release store — no locks, no allocation
//      beyond the span's name/attr strings (short enough for SSO in the
//      common case).
//   2. Readers may race writers: a span becomes visible to `snapshot()`
//      only after its begin fields are published (`open`), and its
//      attrs/duration are read only after the end publish (`done`).
//      A still-running span reports `running=true` with a live duration.
//   3. Bounded memory: the slot capacity is fixed at construction; when
//      it fills, further spans are counted in `dropped()` instead of
//      recorded. Slots are allocated on first use, in chunks of
//      `kChunkSlots`, each installed with one compare-and-swap, so a
//      retained trace (job registry, flight recorder) costs the chunks
//      its spans touched — a warm job's 26 spans take 2 of the 16 chunks
//      a full 256-slot trace would.
//
// Trace ids are 128 bits, minted via the splitmix64 finalizer over a
// process-unique counter, rendered as 32 lowercase hex chars — the
// format of the `x-mpqls-trace` header and the wire-v3 trace field.
#pragma once

#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/hash.hpp"

namespace mpqls::trace {

/// 128-bit trace identifier. Zero means "no id assigned yet".
struct TraceId {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  bool zero() const { return hi == 0 && lo == 0; }
  friend bool operator==(const TraceId& a, const TraceId& b) {
    return a.hi == b.hi && a.lo == b.lo;
  }
  friend bool operator!=(const TraceId& a, const TraceId& b) { return !(a == b); }

  /// 32 lowercase hex chars, hi half first — the `x-mpqls-trace` format.
  std::string hex() const {
    static constexpr char kDigits[] = "0123456789abcdef";
    std::string s(32, '0');
    for (int i = 0; i < 16; ++i) s[15 - i] = kDigits[(hi >> (4 * i)) & 0xF];
    for (int i = 0; i < 16; ++i) s[31 - i] = kDigits[(lo >> (4 * i)) & 0xF];
    return s;
  }

  /// Parse exactly 32 hex chars; anything else yields a zero id and
  /// `false` (callers mint a fresh id instead of trusting bad input).
  static bool parse(std::string_view text, TraceId& out) {
    out = TraceId{};
    if (text.size() != 32) return false;
    auto half = [](std::string_view part, std::uint64_t& value) {
      const auto res = std::from_chars(part.data(), part.data() + part.size(), value, 16);
      return res.ec == std::errc{} && res.ptr == part.data() + part.size();
    };
    TraceId id;
    if (!half(text.substr(0, 16), id.hi) || !half(text.substr(16, 16), id.lo)) {
      out = TraceId{};
      return false;
    }
    out = id;
    return true;
  }
};

/// Mint a fresh id: splitmix64 over a process-global counter seeded with
/// clock entropy, so ids are unique within a process and overwhelmingly
/// unlikely to collide across daemons in one cluster.
inline TraceId mint_trace_id() {
  static std::atomic<std::uint64_t> counter{[] {
    const auto now = std::chrono::steady_clock::now().time_since_epoch().count();
    const auto wall = std::chrono::system_clock::now().time_since_epoch().count();
    return mix64(static_cast<std::uint64_t>(now)) ^ static_cast<std::uint64_t>(wall);
  }()};
  const std::uint64_t seed = counter.fetch_add(1, std::memory_order_relaxed);
  TraceId id;
  id.hi = mix64(seed ^ 0x9E3779B97F4A7C15ull);
  id.lo = mix64(seed + 0xD1B54A32D192ED03ull);
  if (id.zero()) id.lo = 1;  // zero is reserved for "no id"
  return id;
}

/// Default span-slot count per trace. Enough for the full life of a
/// typical job (admission + queue + prepare + a few panel groups x tens
/// of refinement rounds); pathological jobs overflow into `dropped()`.
inline constexpr std::size_t kDefaultSpanCapacity = 256;

/// A finished (or still-running) span as seen by a reader.
struct SpanView {
  std::uint64_t id = 0;      ///< slot index + 1; 0 is "no span"
  std::uint64_t parent = 0;  ///< parent span id, 0 = top level
  std::string name;
  std::uint64_t start_ns = 0;     ///< offset from the trace epoch
  std::uint64_t duration_ns = 0;  ///< live elapsed time if still running
  std::string attrs;              ///< pre-rendered "k=v,k=v" pairs
  bool running = false;
};

/// Per-job span buffer. All methods are safe to call concurrently from
/// any thread; `snapshot()` is safe to call while spans are being
/// recorded.
class Trace {
 public:
  explicit Trace(TraceId id, std::size_t capacity = kDefaultSpanCapacity)
      : id_(id),
        epoch_(std::chrono::steady_clock::now()),
        capacity_(capacity),
        chunks_((capacity + kChunkSlots - 1) / kChunkSlots) {}

  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;
  ~Trace() {
    for (auto& chunk : chunks_) delete chunk.load(std::memory_order_relaxed);
  }

  const TraceId& id() const { return id_; }

  /// Nanoseconds since this trace was created (its span time base).
  std::uint64_t now_ns() const {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(std::chrono::steady_clock::now() -
                                                             epoch_)
            .count());
  }

  /// Start a span. Returns its id, or 0 if the buffer is full (the span
  /// is counted in `dropped()` and `end_span(0, ...)` is a no-op).
  std::uint64_t begin_span(std::string_view name, std::uint64_t parent = 0) {
    const std::size_t slot = claimed_.fetch_add(1, std::memory_order_relaxed);
    if (slot >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      return 0;
    }
    Slot& s = claim(slot);
    s.parent = parent;
    s.name.assign(name);
    s.start_ns = now_ns();
    s.open.store(true, std::memory_order_release);
    return slot + 1;
  }

  /// Finish a span started with `begin_span`. `attrs` is a pre-rendered
  /// comma-separated "key=value" list (keys/values must not contain ','
  /// or '='); it is attached atomically with the duration.
  void end_span(std::uint64_t span_id, std::string attrs = {}) {
    if (span_id == 0 || span_id > capacity_) return;
    // begin_span installed this slot's chunk before it returned the id.
    Slot& s = *find(span_id - 1);
    s.attrs = std::move(attrs);
    s.duration_ns = now_ns() - s.start_ns;
    s.done.store(true, std::memory_order_release);
  }

  std::uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  /// Consistent read of every published span, in start order (slot
  /// claim order). Running spans appear with a live duration and no
  /// attrs; slots claimed but not yet opened are skipped.
  std::vector<SpanView> snapshot() const {
    std::vector<SpanView> out;
    const std::size_t n = std::min(claimed_.load(std::memory_order_relaxed), capacity_);
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const Slot* slot = find(i);
      if (slot == nullptr) continue;  // claimed, chunk not installed yet
      const Slot& s = *slot;
      if (!s.open.load(std::memory_order_acquire)) continue;
      SpanView v;
      v.id = i + 1;
      v.parent = s.parent;
      v.name = s.name;
      v.start_ns = s.start_ns;
      if (s.done.load(std::memory_order_acquire)) {
        v.duration_ns = s.duration_ns;
        v.attrs = s.attrs;
      } else {
        v.duration_ns = now_ns() - s.start_ns;
        v.running = true;
      }
      out.push_back(std::move(v));
    }
    return out;
  }

 private:
  struct Slot {
    std::uint64_t parent = 0;
    std::string name;
    std::uint64_t start_ns = 0;
    std::uint64_t duration_ns = 0;
    std::string attrs;
    std::atomic<bool> open{false};  ///< begin fields published
    std::atomic<bool> done{false};  ///< duration + attrs published
  };

  /// Slots per allocation: small enough that a short job's trace stays
  /// small, large enough that most spans find their chunk installed.
  static constexpr std::size_t kChunkSlots = 16;
  struct Chunk {
    Slot slots[kChunkSlots];
  };

  /// Slot `i` (< capacity), installing its chunk if no writer has yet.
  /// Racing writers each build a chunk; one CAS wins and the losers free
  /// theirs, so recording stays lock-free.
  Slot& claim(std::size_t i) {
    std::atomic<Chunk*>& cell = chunks_[i / kChunkSlots];
    Chunk* chunk = cell.load(std::memory_order_acquire);
    if (chunk == nullptr) {
      auto fresh = std::make_unique<Chunk>();
      if (cell.compare_exchange_strong(chunk, fresh.get(), std::memory_order_acq_rel,
                                       std::memory_order_acquire)) {
        chunk = fresh.release();
      }
    }
    return chunk->slots[i % kChunkSlots];
  }

  /// Slot `i` (< capacity), or null while its chunk is not installed.
  Slot* find(std::size_t i) const {
    Chunk* chunk = chunks_[i / kChunkSlots].load(std::memory_order_acquire);
    return chunk == nullptr ? nullptr : &chunk->slots[i % kChunkSlots];
  }

  TraceId id_;
  std::chrono::steady_clock::time_point epoch_;
  std::size_t capacity_;
  std::atomic<std::size_t> claimed_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::vector<std::atomic<Chunk*>> chunks_;
};

/// Shared handle to a per-job trace. Null = tracing disabled for this
/// job; every recording helper no-ops on a null context.
using TraceContext = std::shared_ptr<Trace>;

inline TraceContext make_trace(TraceId id = {}, std::size_t capacity = kDefaultSpanCapacity) {
  return std::make_shared<Trace>(id.zero() ? mint_trace_id() : id, capacity);
}

/// RAII span: begins on construction, ends (with any attached attrs)
/// when the scope exits. Default-constructed or null-context guards are
/// inert — the disabled-macro expansion and the tracing-off runtime
/// path share that no-op.
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(const TraceContext& trace, std::string_view name, std::uint64_t parent = 0)
      : trace_(trace), id_(trace_ ? trace_->begin_span(name, parent) : 0) {}

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&& other) noexcept
      : trace_(std::move(other.trace_)), id_(other.id_), attrs_(std::move(other.attrs_)) {
    other.trace_.reset();
    other.id_ = 0;
  }
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  ~ScopedSpan() { finish(); }

  /// Attach a "key=value" attribute, recorded when the span ends.
  void attr(std::string_view key, std::string_view value) {
    if (!trace_ || id_ == 0) return;
    if (!attrs_.empty()) attrs_ += ',';
    attrs_ += key;
    attrs_ += '=';
    attrs_ += value;
  }
  void attr(std::string_view key, std::uint64_t value) { attr(key, std::to_string(value)); }

  /// End the span now instead of at scope exit.
  void finish() {
    if (trace_ && id_ != 0) trace_->end_span(id_, std::move(attrs_));
    trace_.reset();
    id_ = 0;
  }

  std::uint64_t id() const { return id_; }
  explicit operator bool() const { return id_ != 0; }

 private:
  TraceContext trace_;
  std::uint64_t id_ = 0;
  std::string attrs_;
};

// Scoped-span macro: the instrumentation call sites compile to nothing
// (an inert guard the optimizer deletes) when MPQLS_TRACE_DISABLED is
// defined at build time; otherwise a null context at runtime costs one
// pointer test per site.
#ifndef MPQLS_TRACE_DISABLED
#define MPQLS_TRACE_SPAN(var, tracectx, spanname, ...) \
  ::mpqls::trace::ScopedSpan var((tracectx), (spanname), ##__VA_ARGS__)
#else
#define MPQLS_TRACE_SPAN(var, tracectx, spanname, ...) ::mpqls::trace::ScopedSpan var
#endif

/// One retained slow-job entry: identity + latency summary + the full
/// trace for post-hoc inspection.
struct FlightRecord {
  std::string job_id;
  std::string state;
  double total_seconds = 0.0;
  double queue_seconds = 0.0;
  double run_seconds = 0.0;
  TraceContext trace;
};

/// Bounded "K worst jobs by total latency" recorder. Updated once per
/// finished job, so a mutex is plenty; `snapshot()` returns worst
/// first. Memory is bounded by `capacity` retained traces.
class FlightRecorder {
 public:
  explicit FlightRecorder(std::size_t capacity = 8) : capacity_(capacity) {}

  void record(FlightRecord rec) {
    if (capacity_ == 0) return;
    std::lock_guard<std::mutex> lock(mutex_);
    // Insert sorted (descending by total latency); the list is tiny.
    auto it = worst_.begin();
    while (it != worst_.end() && it->total_seconds >= rec.total_seconds) ++it;
    if (it == worst_.end() && worst_.size() >= capacity_) return;
    worst_.insert(it, std::move(rec));
    if (worst_.size() > capacity_) worst_.pop_back();
  }

  std::vector<FlightRecord> snapshot() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return worst_;
  }

  std::size_t capacity() const { return capacity_; }

 private:
  mutable std::mutex mutex_;
  std::size_t capacity_;
  std::vector<FlightRecord> worst_;
};

}  // namespace mpqls::trace
