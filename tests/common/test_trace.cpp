// Unit tests for the request-tracing primitives (common/trace.hpp):
// trace-id minting/parsing, the lock-free span buffer's publish protocol
// (including overflow accounting and reader/writer races), the ScopedSpan
// RAII guard, and the K-worst flight recorder.
#include "common/trace.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace mpqls::trace {
namespace {

TEST(TraceId, HexRoundTripsThroughParse) {
  const TraceId id = mint_trace_id();
  EXPECT_FALSE(id.zero());
  const std::string hex = id.hex();
  EXPECT_EQ(hex.size(), 32u);
  TraceId parsed;
  ASSERT_TRUE(TraceId::parse(hex, parsed));
  EXPECT_EQ(parsed, id);
}

TEST(TraceId, MintedIdsAreUnique) {
  std::set<std::string> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(mint_trace_id().hex());
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(TraceId, ParseRejectsMalformedInput) {
  TraceId out{1, 1};
  EXPECT_FALSE(TraceId::parse("", out));
  EXPECT_TRUE(out.zero());  // rejection resets the output
  EXPECT_FALSE(TraceId::parse("abc", out));
  EXPECT_FALSE(TraceId::parse(std::string(31, 'a'), out));
  EXPECT_FALSE(TraceId::parse(std::string(33, 'a'), out));
  EXPECT_FALSE(TraceId::parse("g" + std::string(31, 'a'), out));
  EXPECT_FALSE(TraceId::parse(std::string(16, 'a') + " " + std::string(15, 'a'), out));
}

TEST(TraceId, ParseAcceptsLeadingZeros) {
  TraceId out;
  ASSERT_TRUE(TraceId::parse("0000000000000000000000000000000a", out));
  EXPECT_EQ(out.hi, 0u);
  EXPECT_EQ(out.lo, 0xAu);
}

TEST(Trace, SpansPublishWithParentageAndAttrs) {
  Trace trace(mint_trace_id());
  const auto root = trace.begin_span("run");
  ASSERT_NE(root, 0u);
  const auto child = trace.begin_span("prepare", root);
  trace.end_span(child, "cache=hit");
  trace.end_span(root);

  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 2u);
  EXPECT_EQ(spans[0].name, "run");
  EXPECT_EQ(spans[0].parent, 0u);
  EXPECT_FALSE(spans[0].running);
  EXPECT_EQ(spans[1].name, "prepare");
  EXPECT_EQ(spans[1].parent, root);
  EXPECT_EQ(spans[1].attrs, "cache=hit");
}

TEST(Trace, RunningSpanReportsLiveDuration) {
  Trace trace(mint_trace_id());
  const auto id = trace.begin_span("run");
  const auto spans = trace.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_TRUE(spans[0].running);
  trace.end_span(id);
  EXPECT_FALSE(trace.snapshot()[0].running);
}

TEST(Trace, OverflowCountsDroppedInsteadOfRecording) {
  Trace trace(mint_trace_id(), /*capacity=*/2);
  EXPECT_NE(trace.begin_span("a"), 0u);
  EXPECT_NE(trace.begin_span("b"), 0u);
  EXPECT_EQ(trace.begin_span("c"), 0u);
  EXPECT_EQ(trace.begin_span("d"), 0u);
  EXPECT_EQ(trace.dropped(), 2u);
  trace.end_span(0, "ignored=1");  // dropped-span end is a no-op
  EXPECT_EQ(trace.snapshot().size(), 2u);
}

TEST(Trace, ConcurrentWritersAndReadersStayConsistent) {
  Trace trace(mint_trace_id(), /*capacity=*/4096);
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 512;
  std::vector<std::thread> threads;
  threads.reserve(kWriters + 1);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&trace, w] {
      for (int i = 0; i < kSpansPerWriter; ++i) {
        const auto id = trace.begin_span("w" + std::to_string(w));
        trace.end_span(id, "i=" + std::to_string(i));
      }
    });
  }
  // A racing reader: every snapshot must be internally consistent (no
  // torn names/attrs — TSan/ASan would flag them) whatever the writers
  // are doing.
  threads.emplace_back([&trace] {
    for (int i = 0; i < 100; ++i) {
      for (const auto& span : trace.snapshot()) {
        ASSERT_FALSE(span.name.empty());
        ASSERT_NE(span.id, 0u);
      }
    }
  });
  for (auto& t : threads) t.join();

  const auto spans = trace.snapshot();
  EXPECT_EQ(spans.size(), static_cast<std::size_t>(kWriters * kSpansPerWriter));
  EXPECT_EQ(trace.dropped(), 0u);
  for (const auto& span : spans) EXPECT_FALSE(span.running);
}

TEST(Trace, ChunksInstallOnFirstUseUnderConcurrentWritersAndReaders) {
  // Slots are allocated in chunks of 16 on first use. Writers racing
  // across chunk boundaries (and past a capacity that is not a multiple
  // of 16) while a reader snapshots must install each chunk once, keep
  // every recorded span, and count the overflow in dropped().
  constexpr std::size_t kCapacity = 40;
  constexpr int kWriters = 4;
  constexpr int kSpansPerWriter = 15;
  for (int round = 0; round < 50; ++round) {
    Trace trace(mint_trace_id(), kCapacity);
    std::atomic<bool> go{false};
    std::atomic<int> writing{kWriters};
    std::vector<std::thread> threads;
    threads.reserve(kWriters + 1);
    for (int w = 0; w < kWriters; ++w) {
      threads.emplace_back([&, w] {
        while (!go.load(std::memory_order_acquire)) {
        }
        for (int i = 0; i < kSpansPerWriter; ++i) {
          const auto id = trace.begin_span("w" + std::to_string(w));
          trace.end_span(id, "i=" + std::to_string(i));
        }
        writing.fetch_sub(1, std::memory_order_release);
      });
    }
    threads.emplace_back([&] {
      go.store(true, std::memory_order_release);
      while (writing.load(std::memory_order_acquire) > 0) {
        std::set<std::uint64_t> ids;
        for (const auto& span : trace.snapshot()) {
          ASSERT_FALSE(span.name.empty());
          ASSERT_GE(span.id, 1u);
          ASSERT_LE(span.id, kCapacity);
          ASSERT_TRUE(ids.insert(span.id).second);
        }
      }
    });
    for (auto& t : threads) t.join();

    const auto spans = trace.snapshot();
    ASSERT_EQ(spans.size(), kCapacity) << "round " << round;
    EXPECT_EQ(trace.dropped(), kWriters * kSpansPerWriter - kCapacity);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].id, i + 1);
      EXPECT_FALSE(spans[i].running);
    }
  }
}

TEST(ScopedSpan, RecordsAttrsOnScopeExit) {
  auto trace = make_trace();
  {
    ScopedSpan span(trace, "replay");
    span.attr("tier", "half");
    span.attr("lanes", std::uint64_t{8});
  }
  const auto spans = trace->snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].attrs, "tier=half,lanes=8");
}

TEST(ScopedSpan, NullContextIsInert) {
  ScopedSpan span(nullptr, "nothing");
  EXPECT_FALSE(static_cast<bool>(span));
  span.attr("k", "v");  // must not crash
  span.finish();
  ScopedSpan defaulted;
  EXPECT_FALSE(static_cast<bool>(defaulted));
}

TEST(ScopedSpan, FinishIsIdempotent) {
  auto trace = make_trace();
  ScopedSpan span(trace, "once");
  span.finish();
  span.finish();  // second finish (and the destructor) must not re-end
  EXPECT_EQ(trace->snapshot().size(), 1u);
}

TEST(ScopedSpan, MacroCompilesAndRecords) {
  auto trace = make_trace();
  {
    MPQLS_TRACE_SPAN(span, trace, "macro_span");
    span.attr("k", "v");
  }
  ASSERT_EQ(trace->snapshot().size(), 1u);
  EXPECT_EQ(trace->snapshot()[0].name, "macro_span");
}

TEST(FlightRecorder, KeepsKWorstByTotalLatency) {
  FlightRecorder recorder(/*capacity=*/3);
  for (const double total : {0.5, 2.0, 0.1, 3.0, 1.0}) {
    FlightRecord rec;
    rec.job_id = "job-" + std::to_string(total);
    rec.total_seconds = total;
    recorder.record(std::move(rec));
  }
  const auto worst = recorder.snapshot();
  ASSERT_EQ(worst.size(), 3u);
  EXPECT_DOUBLE_EQ(worst[0].total_seconds, 3.0);
  EXPECT_DOUBLE_EQ(worst[1].total_seconds, 2.0);
  EXPECT_DOUBLE_EQ(worst[2].total_seconds, 1.0);
}

TEST(FlightRecorder, ZeroCapacityDisablesRecording) {
  FlightRecorder recorder(0);
  FlightRecord rec;
  rec.total_seconds = 1.0;
  recorder.record(std::move(rec));
  EXPECT_TRUE(recorder.snapshot().empty());
}

}  // namespace
}  // namespace mpqls::trace
