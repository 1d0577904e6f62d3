// Binary wire codec tests: primitive round trips, frame-header validation
// (magic/version/tag/reserved/length), truncation at EVERY byte offset of
// a real request frame, request/result/matrix codec round trips, and
// field-for-field parity with the JSON codec — the invariant that lets
// the daemon accept either encoding on the same route.
#include "wire/codec.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "common/trace.hpp"
#include "hybrid/comm.hpp"
#include "linalg/random_matrix.hpp"
#include "service/fingerprint.hpp"
#include "service/json_io.hpp"
#include "service/limits.hpp"
#include "wire/frame.hpp"

namespace mpqls::wire {
namespace {

// --- fixtures --------------------------------------------------------------

service::SolveRequest sample_request(std::size_t n = 6, std::size_t n_rhs = 3) {
  Xoshiro256 rng(11);
  service::SolveRequest req;
  req.id = "wire-roundtrip";
  req.A = linalg::random_with_cond(rng, n, 8.0);
  for (std::size_t k = 0; k < n_rhs; ++k) req.rhs.push_back(linalg::random_unit_vector(rng, n));
  // Non-default values in every options field the codec serializes, so a
  // field the decoder skipped or misordered cannot round-trip by luck.
  auto& o = req.options;
  o.eps = 3e-7;
  o.max_iterations = 123;
  o.use_brent = true;
  o.residual_precision = static_cast<solver::ResidualPrecision>(1);
  o.qsvt.backend = qsvt::Backend::kGateLevel;
  o.qsvt.precision = qsvt::QpuPrecision::kAdaptive;  // highest wire value (3)
  o.qsvt.poly_method = static_cast<qsvt::PolyMethod>(1);
  o.qsvt.encoding = static_cast<qsvt::EncodingKind>(1);
  o.qsvt.eps_l = 7e-3;
  o.qsvt.kappa = 42.5;
  o.qsvt.kappa_margin = 1.25;
  o.qsvt.shots = 100000;
  o.qsvt.seed = 99;
  o.qsvt.noise.depolarizing_per_gate = 1e-6;
  o.qsvt.noise.damping_per_gate = 2e-6;
  o.qsvt.qsp_options.max_fpi_iterations = 77;
  o.qsvt.qsp_options.max_newton_iterations = 33;
  o.qsvt.qsp_options.max_lbfgs_iterations = 11;
  o.qsvt.qsp_options.tolerance = 5e-13;
  o.qsvt.qsp_options.lbfgs_threshold = 0.75;
  o.qsvt.qsp_options.enable_newton = false;
  o.qsvt.qsp_options.enable_lbfgs = true;
  o.escalation.stall_ratio = 0.375;
  o.escalation.single_floor = 6e-11;
  // Nonzero client trace id: the wire-v3 trailing field rides every
  // round trip below, and the JSON parity check carries it too.
  req.trace_id = trace::TraceId{0x0123456789ABCDEFull, 0x0FEDCBA987654321ull};
  return req;
}

service::SolveResult sample_result() {
  service::SolveResult result;
  result.id = "result-roundtrip";
  result.fp.matrix_hash = 0x1122334455667788ull;
  result.fp.options_hash = 0x99AABBCCDDEEFF00ull;
  result.cache_hit = true;
  result.all_converged = true;
  result.prepare_seconds = 0.125;
  result.total_seconds = 0.5;
  result.panels_executed = 3;
  result.panel_lanes = 17;
  for (int k = 0; k < 2; ++k) {
    service::RhsResult s;
    s.solve_seconds = 0.01 * (k + 1);
    auto& rep = s.report;
    rep.x = linalg::Vector<double>{1.0, -2.0, 3.5 + k};
    rep.scaled_residuals = {1e-1, 1e-4, 1e-9};
    rep.iterations = 3;
    rep.converged = true;
    rep.kappa = 12.0;
    rep.eps_l_requested = 1e-2;
    rep.eps_l_effective = 8e-3;
    rep.poly_degree = 41;
    rep.poly_scale = 0.9;
    rep.theoretical_iteration_bound = 64;
    rep.total_be_calls = 123 + k;
    rep.program_source_gates = 1000;
    rep.program_ops = 900;
    rep.program_depth = 500;
    rep.program_compile_seconds = 0.002;
    rep.tier_solves = {3, 1};
    rep.tier_iterations = {3, 1};
    rep.precision_switches = 2 + static_cast<std::uint64_t>(k);
    rep.dd128_verified = (k == 0);
    rep.dd128_final_residual = 3e-13;
    for (int i = 0; i < 3; ++i) {
      solver::SolveTelemetry t;
      t.mu = 0.5 + i;
      t.success_probability = 0.25 * (i + 1);
      t.be_calls = 10 + i;
      t.circuit_gates = 100 + i;
      rep.solves.push_back(t);
    }
    rep.comm.record(hybrid::Direction::kCpuToQpu, "phases", 256, 0);
    rep.comm.record(hybrid::Direction::kQpuToCpu, "solution", 4096, 1);
    result.solves.push_back(std::move(s));
  }
  return result;
}

void expect_options_eq(const solver::QsvtIrOptions& a, const solver::QsvtIrOptions& b) {
  EXPECT_EQ(a.eps, b.eps);
  EXPECT_EQ(a.max_iterations, b.max_iterations);
  EXPECT_EQ(a.use_brent, b.use_brent);
  EXPECT_EQ(a.residual_precision, b.residual_precision);
  EXPECT_EQ(a.qsvt.backend, b.qsvt.backend);
  EXPECT_EQ(a.qsvt.precision, b.qsvt.precision);
  EXPECT_EQ(a.qsvt.poly_method, b.qsvt.poly_method);
  EXPECT_EQ(a.qsvt.encoding, b.qsvt.encoding);
  EXPECT_EQ(a.qsvt.eps_l, b.qsvt.eps_l);
  EXPECT_EQ(a.qsvt.kappa, b.qsvt.kappa);
  EXPECT_EQ(a.qsvt.kappa_margin, b.qsvt.kappa_margin);
  EXPECT_EQ(a.qsvt.shots, b.qsvt.shots);
  EXPECT_EQ(a.qsvt.seed, b.qsvt.seed);
  EXPECT_EQ(a.qsvt.noise.depolarizing_per_gate, b.qsvt.noise.depolarizing_per_gate);
  EXPECT_EQ(a.qsvt.noise.damping_per_gate, b.qsvt.noise.damping_per_gate);
  EXPECT_EQ(a.qsvt.qsp_options.max_fpi_iterations, b.qsvt.qsp_options.max_fpi_iterations);
  EXPECT_EQ(a.qsvt.qsp_options.max_newton_iterations, b.qsvt.qsp_options.max_newton_iterations);
  EXPECT_EQ(a.qsvt.qsp_options.max_lbfgs_iterations, b.qsvt.qsp_options.max_lbfgs_iterations);
  EXPECT_EQ(a.qsvt.qsp_options.tolerance, b.qsvt.qsp_options.tolerance);
  EXPECT_EQ(a.qsvt.qsp_options.lbfgs_threshold, b.qsvt.qsp_options.lbfgs_threshold);
  EXPECT_EQ(a.qsvt.qsp_options.enable_newton, b.qsvt.qsp_options.enable_newton);
  EXPECT_EQ(a.qsvt.qsp_options.enable_lbfgs, b.qsvt.qsp_options.enable_lbfgs);
  EXPECT_EQ(a.escalation.stall_ratio, b.escalation.stall_ratio);
  EXPECT_EQ(a.escalation.single_floor, b.escalation.single_floor);
}

void expect_request_eq(const service::SolveRequest& a, const service::SolveRequest& b) {
  EXPECT_EQ(a.id, b.id);
  ASSERT_EQ(a.matrix().rows(), b.matrix().rows());
  ASSERT_EQ(a.matrix().cols(), b.matrix().cols());
  for (std::size_t i = 0; i < a.matrix().rows(); ++i) {
    for (std::size_t c = 0; c < a.matrix().cols(); ++c) {
      EXPECT_EQ(a.matrix()(i, c), b.matrix()(i, c)) << "A(" << i << "," << c << ")";
    }
  }
  ASSERT_EQ(a.rhs.size(), b.rhs.size());
  for (std::size_t k = 0; k < a.rhs.size(); ++k) {
    ASSERT_EQ(a.rhs[k].size(), b.rhs[k].size());
    for (std::size_t i = 0; i < a.rhs[k].size(); ++i) EXPECT_EQ(a.rhs[k][i], b.rhs[k][i]);
  }
  expect_options_eq(a.options, b.options);
  EXPECT_EQ(a.trace_id, b.trace_id);
}

void expect_result_eq(const service::SolveResult& a, const service::SolveResult& b) {
  EXPECT_EQ(a.id, b.id);
  EXPECT_EQ(a.fp.matrix_hash, b.fp.matrix_hash);
  EXPECT_EQ(a.fp.options_hash, b.fp.options_hash);
  EXPECT_EQ(a.cache_hit, b.cache_hit);
  EXPECT_EQ(a.all_converged, b.all_converged);
  EXPECT_EQ(a.prepare_seconds, b.prepare_seconds);
  EXPECT_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(a.panels_executed, b.panels_executed);
  EXPECT_EQ(a.panel_lanes, b.panel_lanes);
  ASSERT_EQ(a.solves.size(), b.solves.size());
  for (std::size_t k = 0; k < a.solves.size(); ++k) {
    const auto& ra = a.solves[k].report;
    const auto& rb = b.solves[k].report;
    EXPECT_EQ(a.solves[k].solve_seconds, b.solves[k].solve_seconds);
    ASSERT_EQ(ra.x.size(), rb.x.size());
    for (std::size_t i = 0; i < ra.x.size(); ++i) EXPECT_EQ(ra.x[i], rb.x[i]);
    EXPECT_EQ(ra.scaled_residuals, rb.scaled_residuals);
    EXPECT_EQ(ra.iterations, rb.iterations);
    EXPECT_EQ(ra.converged, rb.converged);
    EXPECT_EQ(ra.kappa, rb.kappa);
    EXPECT_EQ(ra.eps_l_requested, rb.eps_l_requested);
    EXPECT_EQ(ra.eps_l_effective, rb.eps_l_effective);
    EXPECT_EQ(ra.poly_degree, rb.poly_degree);
    EXPECT_EQ(ra.poly_scale, rb.poly_scale);
    EXPECT_EQ(ra.theoretical_iteration_bound, rb.theoretical_iteration_bound);
    EXPECT_EQ(ra.total_be_calls, rb.total_be_calls);
    EXPECT_EQ(ra.program_source_gates, rb.program_source_gates);
    EXPECT_EQ(ra.program_ops, rb.program_ops);
    EXPECT_EQ(ra.program_depth, rb.program_depth);
    EXPECT_EQ(ra.program_compile_seconds, rb.program_compile_seconds);
    EXPECT_EQ(ra.tier_solves, rb.tier_solves);
    EXPECT_EQ(ra.tier_iterations, rb.tier_iterations);
    EXPECT_EQ(ra.precision_switches, rb.precision_switches);
    EXPECT_EQ(ra.dd128_verified, rb.dd128_verified);
    EXPECT_EQ(ra.dd128_final_residual, rb.dd128_final_residual);
    ASSERT_EQ(ra.solves.size(), rb.solves.size());
    for (std::size_t i = 0; i < ra.solves.size(); ++i) {
      EXPECT_EQ(ra.solves[i].mu, rb.solves[i].mu);
      EXPECT_EQ(ra.solves[i].success_probability, rb.solves[i].success_probability);
      EXPECT_EQ(ra.solves[i].be_calls, rb.solves[i].be_calls);
      EXPECT_EQ(ra.solves[i].circuit_gates, rb.solves[i].circuit_gates);
    }
    ASSERT_EQ(ra.comm.events().size(), rb.comm.events().size());
    for (std::size_t i = 0; i < ra.comm.events().size(); ++i) {
      EXPECT_EQ(ra.comm.events()[i].direction, rb.comm.events()[i].direction);
      EXPECT_EQ(ra.comm.events()[i].payload, rb.comm.events()[i].payload);
      EXPECT_EQ(ra.comm.events()[i].bytes, rb.comm.events()[i].bytes);
      EXPECT_EQ(ra.comm.events()[i].iteration, rb.comm.events()[i].iteration);
    }
  }
}

// --- primitives ------------------------------------------------------------

TEST(WirePrimitives, IntegersStringsAndArraysRoundTrip) {
  WireWriter w;
  const std::vector<double> doubles = {0.0, -1.5, 1e300, -1e-300};
  w.u8(0xAB).u16(0xCDEF).u32(0xDEADBEEF).u64(0x0123456789ABCDEFull).i64(-42).f64(-0.125);
  w.str("hello");
  w.str("");
  w.f64_array(doubles.data(), doubles.size());

  const std::string buf = w.take();  // WireReader holds a view, not a copy
  WireReader r(buf);
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0xCDEF);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.str(16), "hello");
  EXPECT_EQ(r.str(16), "");
  std::vector<double> back;
  r.f64_array(back, 16);
  EXPECT_EQ(back, doubles);
  EXPECT_NO_THROW(r.expect_done());
}

TEST(WirePrimitives, ReadsAreBoundsCheckedAndCapped) {
  {
    WireReader r(std::string_view("\x01", 1));
    EXPECT_NO_THROW(r.u8());
    EXPECT_THROW(r.u8(), WireError);
  }
  {
    // Declared string length beyond the cap dies at the check, before any
    // allocation or copy.
    WireWriter w;
    w.str("abcdef");
    const std::string buf = w.take();
    WireReader r(buf);
    EXPECT_THROW(r.str(3), WireError);
  }
  {
    // Declared array count beyond the remaining bytes.
    WireWriter w;
    w.u64(1000);  // promises 1000 doubles, delivers none
    const std::string buf = w.take();
    WireReader r(buf);
    std::vector<double> out;
    EXPECT_THROW(r.f64_array(out, 2000), WireError);
  }
  {
    WireReader r(std::string_view("xy", 2));
    r.u8();
    EXPECT_THROW(r.expect_done(), WireError);  // trailing byte
  }
}

// --- frame header ----------------------------------------------------------

TEST(WireFrame, SealAndOpenRoundTrip) {
  const std::string frame = seal_frame(FrameTag::kMatrix, "payload!");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 8);
  const FrameView view = open_frame(frame);
  EXPECT_EQ(view.tag, FrameTag::kMatrix);
  EXPECT_EQ(view.payload, "payload!");
  EXPECT_EQ(peek_tag(frame), FrameTag::kMatrix);
}

TEST(WireFrame, HeaderViolationsThrowWithOffsets) {
  const std::string good = seal_frame(FrameTag::kSolveRequest, "x");

  // Truncated header: every prefix shorter than 16 bytes.
  for (std::size_t len = 0; len < kFrameHeaderBytes; ++len) {
    EXPECT_THROW(open_frame(good.substr(0, len)), WireError) << "prefix " << len;
  }

  auto corrupted = [&good](std::size_t at, char value) {
    std::string bad = good;
    bad[at] = value;
    return bad;
  };
  EXPECT_THROW(open_frame(corrupted(0, 'X')), WireError);   // magic
  EXPECT_THROW(open_frame(corrupted(4, 9)), WireError);     // version
  EXPECT_THROW(open_frame(corrupted(5, 0)), WireError);     // tag zero
  EXPECT_THROW(open_frame(corrupted(5, 5)), WireError);     // tag unknown
  EXPECT_THROW(open_frame(corrupted(5, '\xFF')), WireError);
  EXPECT_THROW(open_frame(corrupted(6, 1)), WireError);     // reserved

  // Declared/actual length disagreement, both directions.
  EXPECT_THROW(open_frame(good.substr(0, good.size() - 1)), WireError);
  EXPECT_THROW(open_frame(good + "z"), WireError);

  // A zero-length payload is never legal.
  EXPECT_THROW(open_frame(seal_frame(FrameTag::kSolveRequest, "")), WireError);

  // The offset in the error is machine-usable.
  try {
    open_frame(corrupted(5, 5));
    FAIL() << "expected WireError";
  } catch (const WireError& e) {
    EXPECT_EQ(e.offset(), 5u);
    EXPECT_NE(std::string(e.what()).find("unknown frame tag"), std::string::npos);
  }
}

TEST(WireFrame, ContentTypeMatching) {
  EXPECT_TRUE(is_frame_content_type("application/x-mpqls-frame"));
  EXPECT_TRUE(is_frame_content_type("Application/X-MPQLS-Frame"));
  EXPECT_TRUE(is_frame_content_type("  application/x-mpqls-frame  "));
  EXPECT_TRUE(is_frame_content_type("application/x-mpqls-frame; v=1"));
  EXPECT_FALSE(is_frame_content_type("application/json"));
  EXPECT_FALSE(is_frame_content_type("application/x-mpqls-frame2"));
  EXPECT_FALSE(is_frame_content_type(""));
}

// --- request codec ---------------------------------------------------------

TEST(WireRequest, InlineMatrixRoundTripsAndMatchesJsonCodec) {
  const auto req = sample_request();
  const std::string frame = encode_request(req);
  const auto decoded = decode_request(frame);
  expect_request_eq(req, decoded);
  EXPECT_EQ(decoded.matrix_ref, 0u);

  // Parity: the JSON round trip of the same request decodes identically.
  const auto via_json = service::request_from_json(service::to_json(req));
  expect_request_eq(decoded, via_json);

  // Admission peeks agree with the payload.
  EXPECT_EQ(peek_request_matrix_ref(frame), std::nullopt);
  EXPECT_EQ(request_affinity_key(frame), service::hash_matrix(req.A));
}

TEST(WireRequest, ByRefFormResolvesThroughTheCallback) {
  auto req = sample_request();
  const auto stored = std::make_shared<const linalg::Matrix<double>>(req.A);
  req.matrix_ref = service::hash_matrix(*stored);
  const std::string frame = encode_request(req);
  EXPECT_LT(frame.size(), 1024u);  // the matrix did not travel

  // Unresolved decode: ref preserved, no matrix, RHS mutually consistent.
  const auto unresolved = decode_request(frame);
  EXPECT_EQ(unresolved.matrix_ref, req.matrix_ref);
  EXPECT_EQ(unresolved.matrix().rows(), 0u);
  ASSERT_EQ(unresolved.rhs.size(), req.rhs.size());

  // Resolved decode: the store entry is shared, not copied.
  std::uint64_t asked = 0;
  const auto resolved = decode_request(frame, [&](std::uint64_t ref) {
    asked = ref;
    return stored;
  });
  EXPECT_EQ(asked, req.matrix_ref);
  EXPECT_EQ(resolved.shared_A.get(), stored.get());
  expect_request_eq(resolved, sample_request());

  // A resolver miss surfaces as an error, not a zero-dim solve.
  EXPECT_THROW(decode_request(frame, [](std::uint64_t) {
    return std::shared_ptr<const linalg::Matrix<double>>();
  }), std::exception);

  // Peeks route by the ref itself.
  EXPECT_EQ(peek_request_matrix_ref(frame), req.matrix_ref);
  EXPECT_EQ(request_affinity_key(frame), req.matrix_ref);
}

TEST(WireRequest, TruncationAtEveryOffsetThrowsWireError) {
  const std::string frame = encode_request(sample_request(4, 2));
  for (std::size_t len = 0; len < frame.size(); ++len) {
    // Re-seal the prefix payload under a correct header so the test digs
    // past the header's declared-length check into the payload decoders.
    EXPECT_THROW(decode_request(frame.substr(0, len)), WireError) << "prefix " << len;
    if (len > kFrameHeaderBytes) {
      const std::string resealed =
          seal_frame(FrameTag::kSolveRequest,
                     std::string(frame.substr(kFrameHeaderBytes, len - kFrameHeaderBytes)));
      EXPECT_THROW(decode_request(resealed), WireError) << "resealed " << len;
    }
  }
  // Trailing garbage after a complete payload is rejected too.
  const std::string padded = seal_frame(
      FrameTag::kSolveRequest, std::string(frame.substr(kFrameHeaderBytes)) + "tail");
  EXPECT_THROW(decode_request(padded), WireError);
}

TEST(WireRequest, PayloadCapsAreEnforced) {
  // Zero right-hand sides.
  {
    auto req = sample_request(4, 1);
    std::string frame = encode_request(req);
    // The rhs count u32 sits vector + trace-trailer bytes from the end:
    // count(4) + u64 len(8) + 4 doubles(32) + v3 trace id(16) = 60.
    const std::size_t count_at = frame.size() - 60;
    std::memset(frame.data() + count_at, 0, 4);
    // Re-seal with the payload truncated after the count so lengths agree.
    const std::string payload(frame.substr(kFrameHeaderBytes, count_at + 4 - kFrameHeaderBytes));
    EXPECT_THROW(decode_request(seal_frame(FrameTag::kSolveRequest, payload)), WireError);
  }
  // A matrix dimension over the service cap.
  {
    WireWriter w;
    w.str("big");
    w.u8(0);  // inline matrix
    w.u32(static_cast<std::uint32_t>(service::kMaxDimension + 1)).u32(4);
    w.u64(0);
    EXPECT_THROW(decode_request(seal_frame(FrameTag::kSolveRequest, w.take())), WireError);
  }
  // Mismatched rhs dimensions.
  {
    auto req = sample_request(4, 2);
    req.rhs[1] = linalg::Vector<double>{1.0, 2.0, 3.0};  // 3 != 4
    EXPECT_THROW(decode_request(encode_request(req)), WireError);
  }
}

// --- wire v3 trace field ---------------------------------------------------

TEST(WireTrace, PeekAgreesWithFullDecode) {
  const auto req = sample_request(4, 2);
  const std::string frame = encode_request(req);
  EXPECT_EQ(peek_request_trace(frame), req.trace_id);
  EXPECT_EQ(decode_request(frame).trace_id, req.trace_id);

  // A request without a client trace id still carries the (zero) field on
  // the wire — both reads report it as absent.
  auto plain_req = req;
  plain_req.trace_id = trace::TraceId{};
  const std::string plain = encode_request(plain_req);
  EXPECT_EQ(plain.size(), frame.size());  // the field is fixed-width
  EXPECT_TRUE(peek_request_trace(plain).zero());
  EXPECT_TRUE(decode_request(plain).trace_id.zero());

  // The peek refuses non-request frames instead of misreading bytes.
  EXPECT_THROW(peek_request_trace(encode_matrix(linalg::Matrix<double>(2, 2))), WireError);
}

TEST(WireTrace, V2FramesDecodeWithZeroTraceId) {
  const auto req = sample_request(4, 2);
  const std::string v3 = encode_request(req);

  // Rebuild the frame a v2 sender would have produced: same payload minus
  // the 16-byte trailer, version byte (offset 4) stamped 2.
  const std::string bare_payload(
      v3.substr(kFrameHeaderBytes, v3.size() - kFrameHeaderBytes - 16));
  std::string v2 = seal_frame(FrameTag::kSolveRequest, bare_payload);
  v2[4] = 2;
  const auto decoded = decode_request(v2);
  EXPECT_TRUE(decoded.trace_id.zero());
  EXPECT_EQ(decoded.id, req.id);
  ASSERT_EQ(decoded.rhs.size(), req.rhs.size());
  expect_options_eq(decoded.options, req.options);
  EXPECT_TRUE(peek_request_trace(v2).zero());

  // A frame stamped v3 but missing the trailer is truncated, not legacy.
  EXPECT_THROW(decode_request(seal_frame(FrameTag::kSolveRequest, bare_payload)), WireError);

  // Versions outside [kWireMinVersion, kWireVersion] are refused outright:
  // v1 predates the format, v4 would mean fields we cannot know about.
  std::string v1 = v2;
  v1[4] = 1;
  EXPECT_THROW(decode_request(v1), WireError);
  std::string v4 = v3;
  v4[4] = 4;
  EXPECT_THROW(decode_request(v4), WireError);
}

// --- result codec ----------------------------------------------------------

TEST(WireResult, RoundTripsAndMatchesJsonCodec) {
  const auto result = sample_result();
  const auto decoded = decode_result(encode_result(result));
  expect_result_eq(result, decoded);

  const auto via_json = service::result_from_json(service::to_json(result));
  expect_result_eq(decoded, via_json);
}

TEST(WireResult, TruncationThrowsNotCrashes) {
  const std::string frame = encode_result(sample_result());
  const std::string payload(frame.substr(kFrameHeaderBytes));
  for (std::size_t len = 0; len < payload.size(); len += 7) {
    const std::string resealed = seal_frame(FrameTag::kSolveResult, payload.substr(0, len));
    EXPECT_THROW(decode_result(resealed), WireError) << "resealed " << len;
  }
  // Wrong tag for the decoder.
  EXPECT_THROW(decode_result(encode_matrix(linalg::Matrix<double>(2, 2))), WireError);
}

// --- shard exchange codec --------------------------------------------------

TEST(WireShardExchange, RoundTripsOpaquePayload) {
  // The payload is raw amplitude bytes — opaque to the codec, including
  // embedded NULs and non-UTF8 bytes.
  std::string payload;
  for (int i = 0; i < 256; ++i) payload.push_back(static_cast<char>(i));
  const std::string frame = encode_shard_exchange(0xDEADBEEFCAFEF00Dull, 3, 41, payload);
  EXPECT_EQ(peek_tag(frame), FrameTag::kShardExchange);

  const ShardExchange ex = decode_shard_exchange(frame);
  EXPECT_EQ(ex.group, 0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(ex.from, 3u);
  EXPECT_EQ(ex.seq, 41u);
  EXPECT_EQ(ex.payload, payload);

  // An empty block is legal (a rank can own zero amplitudes of a slice).
  const ShardExchange empty = decode_shard_exchange(encode_shard_exchange(1, 0, 0, ""));
  EXPECT_TRUE(empty.payload.empty());
}

TEST(WireShardExchange, LengthLiesAndTruncationThrow) {
  const std::string frame = encode_shard_exchange(7, 1, 2, "abcdefgh");
  const std::string payload(frame.substr(kFrameHeaderBytes));

  // Truncating the payload at every offset dies in the decoder, not later.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    const std::string resealed =
        seal_frame(FrameTag::kShardExchange, payload.substr(0, len));
    EXPECT_THROW(decode_shard_exchange(resealed), WireError) << "resealed " << len;
  }
  // Trailing garbage makes the declared length disagree with the frame.
  EXPECT_THROW(
      decode_shard_exchange(seal_frame(FrameTag::kShardExchange, payload + "z")),
      WireError);
  // Wrong tag for the decoder.
  EXPECT_THROW(decode_shard_exchange(encode_matrix(linalg::Matrix<double>(2, 2))), WireError);
}

// --- matrix codec ----------------------------------------------------------

TEST(WireMatrix, RoundTripAndStreamedHash) {
  Xoshiro256 rng(5);
  const auto A = linalg::random_with_cond(rng, 9, 4.0);
  const std::string frame = encode_matrix(A);
  const auto B = decode_matrix(frame);
  ASSERT_EQ(B.rows(), A.rows());
  ASSERT_EQ(B.cols(), A.cols());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t c = 0; c < A.cols(); ++c) EXPECT_EQ(A(i, c), B(i, c));
  }
  // The streamed hash equals the decoded-matrix hash — the invariant the
  // coordinator relies on to route uploads without materializing them.
  EXPECT_EQ(hash_matrix_frame(frame), service::hash_matrix(A));

  // Element-count lies are caught before any allocation.
  WireWriter w;
  w.u32(3).u32(3).u64(4);
  EXPECT_THROW(decode_matrix(seal_frame(FrameTag::kMatrix, w.take())), WireError);
}

}  // namespace
}  // namespace mpqls::wire
