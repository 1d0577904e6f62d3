// Seeded mutation fuzz of the binary wire codec. Five well-formed frames —
// an inline request, a by-ref request, a result, a matrix upload and a
// shard exchange — are mutated with bit flips, truncations, splices with
// the other frames, and every u32/u64 window of the frame set in turn to a
// boundary value (which hits every length and count field wherever it
// sits). Each mutant goes through every decoder and peek the daemon and
// coordinator run on an untrusted body. A decode must either succeed or
// throw WireError / contract_violation; any other exception fails the test
// (a crash or sanitizer report fails the binary). While a decode runs, the
// largest single heap allocation is recorded: no decode may size a buffer
// past what the frame's own bytes, or the fixed service caps, admit.
// Fixed seeds make every run feed the same frames.
//
// Fixed cases pin the v3 layout the retired half tier left behind: frames
// whose reserved half-tier slots carry values (as older encoders wrote
// them) still decode, to the same request and result.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <optional>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "linalg/random_matrix.hpp"
#include "service/limits.hpp"
#include "wire/frame.hpp"

// --- allocation probe --------------------------------------------------------
// Replaceable global operator new: while `g_probe` is set, remember the
// largest single request. Decoders allocate through std::string and
// std::vector, so every buffer a declared length sizes passes through here.

namespace {
std::atomic<bool> g_probe{false};
std::atomic<std::size_t> g_largest{0};

void* probed_alloc(std::size_t size) {
  if (g_probe.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest.load(std::memory_order_relaxed);
    while (size > seen && !g_largest.compare_exchange_weak(seen, size)) {
    }
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return probed_alloc(size); }
void* operator new[](std::size_t size) { return probed_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mpqls::wire {
namespace {

/// The largest single buffer any decode may allocate. Every length and
/// count is checked against the bytes left in the frame before the buffer
/// it sizes is allocated, so no decode allocates more than a small
/// multiple of the frame it reads.
std::size_t allocation_cap(std::size_t frame_bytes) { return 2 * frame_bytes + 4096; }

// --- seed frames -------------------------------------------------------------

service::SolveRequest sample_request() {
  Xoshiro256 rng(21);
  service::SolveRequest req;
  req.id = "fuzz-request";
  req.A = linalg::random_with_cond(rng, 6, 8.0);
  for (int k = 0; k < 3; ++k) req.rhs.push_back(linalg::random_unit_vector(rng, 6));
  req.options.qsvt.precision = qsvt::QpuPrecision::kAdaptive;
  req.options.escalation.stall_ratio = 0.375;
  req.options.escalation.single_floor = 6e-11;
  req.trace_id = trace::TraceId{0x0123456789ABCDEFull, 0x0FEDCBA987654321ull};
  return req;
}

service::SolveResult sample_result() {
  service::SolveResult result;
  result.id = "fuzz-result";
  result.fp.matrix_hash = 0x1122334455667788ull;
  result.all_converged = true;
  for (int k = 0; k < 2; ++k) {
    service::RhsResult s;
    s.solve_seconds = 0.01 * (k + 1);
    auto& rep = s.report;
    rep.x = linalg::Vector<double>{1.0, -2.0, 3.5 + k};
    rep.scaled_residuals = {1e-1, 1e-4, 1e-9};
    rep.iterations = 2;
    rep.converged = true;
    rep.program_compile_seconds = 0.0625 + k;
    rep.tier_solves = {2, 1};
    rep.tier_iterations = {1, 1};
    rep.precision_switches = 1;
    rep.dd128_verified = true;
    for (int i = 0; i < 3; ++i) rep.solves.push_back({0.5 + i, 0.25, 10u + i, 100u + i});
    rep.comm.record(hybrid::Direction::kCpuToQpu, "phases", 256, 0);
    rep.comm.record(hybrid::Direction::kQpuToCpu, "solution", 4096, 1);
    result.solves.push_back(std::move(s));
  }
  return result;
}

struct Seeds {
  std::shared_ptr<const linalg::Matrix<double>> matrix;
  std::vector<std::string> frames;
};

Seeds seed_frames() {
  Seeds seeds;
  const auto req = sample_request();
  seeds.matrix = std::make_shared<const linalg::Matrix<double>>(req.A);
  seeds.frames.push_back(encode_request(req));
  auto by_ref = req;
  by_ref.matrix_ref = 0xFEEDFACECAFEBEEFull;
  seeds.frames.push_back(encode_request(by_ref));
  seeds.frames.push_back(encode_result(sample_result()));
  seeds.frames.push_back(encode_matrix(req.A));
  seeds.frames.push_back(encode_shard_exchange(7, 1, 42, std::string(64, '\x5A')));
  return seeds;
}

/// How many decoder calls succeeded and how many were refused cleanly.
struct Tally {
  std::size_t accepted = 0;
  std::size_t refused = 0;
  std::size_t largest_allocation = 0;

  template <typename Decode>
  void call(const std::string& frame, Decode&& decode) {
    g_largest.store(0);
    g_probe.store(true);
    try {
      decode();
      ++accepted;
    } catch (const WireError&) {
      ++refused;
    } catch (const contract_violation&) {
      ++refused;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "unexpected exception \"" << e.what() << "\" on a "
                    << frame.size() << "-byte frame";
    } catch (...) {
      ADD_FAILURE() << "non-standard exception on a " << frame.size() << "-byte frame";
    }
    g_probe.store(false);
    const std::size_t largest = g_largest.load();
    largest_allocation = std::max(largest_allocation, largest);
    EXPECT_LE(largest, allocation_cap(frame.size()))
        << "a decode of a " << frame.size() << "-byte frame allocated " << largest << " bytes";
  }

  /// Every decoder and peek an untrusted body reaches for frames of tag
  /// `tag`; every one of them when `tag` is empty.
  void feed(const std::string& frame, const Seeds& seeds,
            std::optional<FrameTag> tag = std::nullopt) {
    const auto runs = [&](FrameTag t) { return !tag || *tag == t; };
    if (runs(FrameTag::kSolveRequest)) {
      const service::MatrixResolver resolve = [&](std::uint64_t) { return seeds.matrix; };
      call(frame, [&] { (void)decode_request(frame, resolve); });
      call(frame, [&] { (void)decode_request(frame); });
      call(frame, [&] { (void)peek_request_matrix_ref(frame); });
      call(frame, [&] { (void)peek_request_trace(frame); });
      call(frame, [&] { (void)request_affinity_key(frame); });
    }
    if (runs(FrameTag::kSolveResult)) call(frame, [&] { (void)decode_result(frame); });
    if (runs(FrameTag::kMatrix)) {
      call(frame, [&] { (void)decode_matrix(frame); });
      call(frame, [&] { (void)hash_matrix_frame(frame); });
    }
    if (runs(FrameTag::kShardExchange)) call(frame, [&] { (void)decode_shard_exchange(frame); });
  }
};

void put_le(std::string& frame, std::size_t at, std::uint64_t value, int bytes) {
  for (int i = 0; i < bytes; ++i) frame[at + i] = static_cast<char>((value >> (8 * i)) & 0xFF);
}

TEST(WireFuzz, MutatedFramesDecodeOrRefuseCleanly) {
  const Seeds seeds = seed_frames();
  Xoshiro256 rng(0x5EED'F4A3ull);
  const Timer timer;

  Tally flips;
  for (const auto& frame : seeds.frames) {
    for (int m = 0; m < 256; ++m) {
      std::string mutant = frame;
      const auto count = 1 + rng.uniform_index(4);
      for (std::uint64_t k = 0; k < count; ++k) {
        mutant[rng.uniform_index(mutant.size())] ^= static_cast<char>(1u << rng.uniform_index(8));
      }
      flips.feed(mutant, seeds);
    }
  }

  Tally truncations;
  for (const auto& frame : seeds.frames) {
    for (std::size_t len = 0; len < frame.size(); ++len) {
      std::string cut = frame.substr(0, len);
      truncations.feed(cut, seeds);
      // The same cut with its header's length field patched to match, so
      // the payload decoders (not only the header check) see the stub.
      if (len >= kFrameHeaderBytes) {
        put_le(cut, 8, len - kFrameHeaderBytes, 8);
        truncations.feed(cut, seeds);
      }
    }
  }

  Tally splices;
  for (const auto& frame : seeds.frames) {
    for (int m = 0; m < 64; ++m) {
      const std::string& other = seeds.frames[rng.uniform_index(seeds.frames.size())];
      std::string spliced = frame.substr(0, rng.uniform_index(frame.size() + 1)) +
                            other.substr(rng.uniform_index(other.size() + 1));
      if (spliced.size() >= kFrameHeaderBytes) {
        put_le(spliced, 8, spliced.size() - kFrameHeaderBytes, 8);
      }
      splices.feed(spliced, seeds);
    }
  }

  // Boundary values in every u32 and u64 window: every length, count and
  // dimension field takes zero, one, the caps' neighbours and the largest
  // values of its width. The header stays valid, so only the decoders of
  // the frame's own tag can get past it.
  const std::uint64_t kBoundaries[] = {0,
                                       1,
                                       service::kMaxDimension + 1,
                                       0xFFFFFFFFull,
                                       0x8000000000000000ull,
                                       ~0ull};
  Tally boundaries;
  for (const auto& frame : seeds.frames) {
    const auto tag = static_cast<FrameTag>(frame[5]);
    for (const int width : {4, 8}) {
      for (std::size_t at = kFrameHeaderBytes; at + width <= frame.size(); ++at) {
        for (const std::uint64_t value : kBoundaries) {
          std::string mutant = frame;
          put_le(mutant, at, value, width);
          boundaries.feed(mutant, seeds, tag);
        }
      }
    }
  }

  const double seconds = timer.seconds();
  EXPECT_LT(seconds, 2.0);
  // Every pass must exercise both outcomes, or it tests nothing.
  for (const Tally* t : {&flips, &truncations, &splices, &boundaries}) {
    EXPECT_GT(t->accepted, 0u);
    EXPECT_GT(t->refused, 0u);
  }
  std::printf("wire fuzz: flips %zu/%zu, truncations %zu/%zu, splices %zu/%zu, "
              "boundaries %zu/%zu (accepted/refused decoder calls), largest decode "
              "allocation %zu bytes, in %.3f s\n",
              flips.accepted, flips.refused, truncations.accepted, truncations.refused,
              splices.accepted, splices.refused, boundaries.accepted, boundaries.refused,
              std::max({flips.largest_allocation, truncations.largest_allocation,
                        splices.largest_allocation, boundaries.largest_allocation}),
              seconds);
}

TEST(WireFuzz, MatrixHeaderClaimingTheCapAllocatesNothingBeforeItsBytes) {
  // A 40-byte frame declaring a kMaxDimension x kMaxDimension matrix with a
  // consistent element count but no elements: refused at the length check,
  // before the 128 MiB matrix it claims is allocated.
  WireWriter w;
  w.u32(service::kMaxDimension).u32(service::kMaxDimension);
  w.u64(static_cast<std::uint64_t>(service::kMaxDimension) * service::kMaxDimension);
  w.f64(1.0);
  const std::string frame = seal_frame(FrameTag::kMatrix, w.take());
  Tally tally;
  tally.call(frame, [&] { (void)decode_matrix(frame); });
  EXPECT_EQ(tally.refused, 1u);
  EXPECT_LT(tally.largest_allocation, std::size_t{1} << 20);

  // The same header inline in a request frame.
  WireWriter r;
  r.str("hostile").u8(0).u32(service::kMaxDimension).u32(service::kMaxDimension);
  r.u64(static_cast<std::uint64_t>(service::kMaxDimension) * service::kMaxDimension);
  const std::string request = seal_frame(FrameTag::kSolveRequest, r.take());
  tally.call(request, [&] { (void)decode_request(request); });
  EXPECT_EQ(tally.refused, 2u);
  EXPECT_LT(tally.largest_allocation, std::size_t{1} << 20);
}

// --- the retired half tier's reserved slots ----------------------------------

/// Offset of the only occurrence of `needle` in `haystack`.
std::size_t find_once(const std::string& haystack, const std::string& needle) {
  const std::size_t at = haystack.find(needle);
  EXPECT_NE(at, std::string::npos);
  EXPECT_EQ(haystack.find(needle, at + 1), std::string::npos);
  return at;
}

std::string le_bytes(std::uint64_t v) {
  std::string out(8, '\0');
  put_le(out, 0, v, 8);
  return out;
}

std::string f64_bytes(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof bits);
  return le_bytes(bits);
}

TEST(WireFuzz, V3RequestWithAHalfFloorDecodes) {
  // Older encoders wrote the half-tier floor between stall_ratio and
  // single_floor; that f64 is now reserved (written 0, read and dropped).
  const auto req = sample_request();
  const std::string frame = encode_request(req);
  const std::size_t at =
      find_once(frame, f64_bytes(req.options.escalation.stall_ratio) + le_bytes(0) +
                           f64_bytes(req.options.escalation.single_floor));
  std::string old = frame;
  old.replace(at + 8, 8, f64_bytes(3e-2));  // the old default half floor
  ASSERT_EQ(old.size(), frame.size());
  ASSERT_EQ(static_cast<std::uint8_t>(old[4]), 3);  // a v3 frame

  const auto back = decode_request(old);
  EXPECT_EQ(back.options.escalation.stall_ratio, req.options.escalation.stall_ratio);
  EXPECT_EQ(back.options.escalation.single_floor, req.options.escalation.single_floor);
  EXPECT_EQ(back.options.qsvt.precision, req.options.qsvt.precision);
  ASSERT_EQ(back.rhs.size(), req.rhs.size());
  EXPECT_EQ(back.trace_id, req.trace_id);
  // Re-encoding writes the reserved slot as zero again.
  EXPECT_EQ(encode_request(back), frame);
}

TEST(WireFuzz, V3ResultWithHalfTierCountersDecodes) {
  // Older encoders wrote each report's tier solve and iteration counts as
  // half/single/double triples; the leading half slot is now reserved.
  const auto result = sample_result();
  const std::string frame = encode_result(result);
  std::string old = frame;
  for (const auto& s : result.solves) {
    const auto& rep = s.report;
    const std::size_t at = find_once(
        old, f64_bytes(rep.program_compile_seconds) + le_bytes(0) +
                 le_bytes(rep.tier_solves[solver::kTierSingle]) +
                 le_bytes(rep.tier_solves[solver::kTierDouble]) + le_bytes(0) +
                 le_bytes(rep.tier_iterations[solver::kTierSingle]) +
                 le_bytes(rep.tier_iterations[solver::kTierDouble]));
    old.replace(at + 8, 8, le_bytes(5));    // half solves
    old.replace(at + 32, 8, le_bytes(4));   // half iterations
  }
  ASSERT_EQ(old.size(), frame.size());

  const auto back = decode_result(old);
  ASSERT_EQ(back.solves.size(), result.solves.size());
  for (std::size_t k = 0; k < result.solves.size(); ++k) {
    const auto& got = back.solves[k].report;
    const auto& want = result.solves[k].report;
    EXPECT_EQ(got.tier_solves, want.tier_solves);
    EXPECT_EQ(got.tier_iterations, want.tier_iterations);
    EXPECT_EQ(got.precision_switches, want.precision_switches);
    EXPECT_EQ(got.solves.size(), want.solves.size());
    EXPECT_EQ(got.comm.events().size(), want.comm.events().size());
  }
  EXPECT_EQ(encode_result(back), frame);
}

// --- list counts ---------------------------------------------------------------

TEST(WireFuzz, ResultListCountsAreCheckedAgainstTheFrameFirst) {
  // A mutant the flip pass once produced: bit 16 flipped in the first
  // report's telemetry count (3 -> 65539) made a decode of this ~600-byte
  // frame reserve 65539 entries (2,097,248 bytes) before reading any.
  const std::string frame = encode_result(sample_result());
  std::string mutant = frame;
  const std::size_t entries = mutant.find(f64_bytes(0.5) + f64_bytes(0.25) + le_bytes(10));
  ASSERT_NE(entries, std::string::npos);
  put_le(mutant, entries - 4, 3u | (1u << 16), 4);
  Tally tally;
  tally.call(mutant, [&] { (void)decode_result(mutant); });
  EXPECT_EQ(tally.refused, 1u);
  EXPECT_LE(tally.largest_allocation, allocation_cap(mutant.size()));

  // The solve count at its cap, in a frame far too short for that many.
  std::string solves = frame;
  const std::string id = "fuzz-result";
  const std::size_t count_at = kFrameHeaderBytes + 4 + id.size() + 8 + 8 + 1 + 1 + 4 * 8;
  ASSERT_EQ(solves.substr(count_at, 4), std::string("\x02\0\0\0", 4));  // two solves
  put_le(solves, count_at, service::kMaxRhsCount, 4);
  tally.call(solves, [&] { (void)decode_result(solves); });
  EXPECT_EQ(tally.refused, 2u);
  EXPECT_LE(tally.largest_allocation, allocation_cap(solves.size()));

  // The unmutated frame still decodes.
  tally.call(frame, [&] { (void)decode_result(frame); });
  EXPECT_EQ(tally.accepted, 1u);
}

}  // namespace
}  // namespace mpqls::wire
