#include "wire/codec.hpp"

#include <cctype>

#include "common/contracts.hpp"
#include "common/hash.hpp"
#include "service/limits.hpp"
#include "wire/frame.hpp"

namespace mpqls::wire {

namespace {

using service::kMaxDimension;
using service::kMaxRhsCount;

constexpr std::size_t kMaxIdBytes = 4096;       ///< job labels are short strings
constexpr std::size_t kMaxPayloadString = 65536;  ///< comm-event payload names
// One residual per refinement iteration plus the initial solve; telemetry
// entries follow the same count.
constexpr std::size_t kMaxPerSolveEntries =
    static_cast<std::size_t>(service::kMaxIterations) + 2;
// The fewest bytes one list entry can take on the wire, so a declared
// count is checked against the bytes left before any list is reserved:
// a right-hand side is a u64 count and at least one f64; a telemetry
// entry is four 8-byte fields; a solve entry is its f64 seconds plus a
// report with empty arrays and lists (two u64 array counts, 12 8-byte
// scalars and a u8, two 3-slot tier arrays, the switch count, a u8 and
// an f64, and two u32 list counts).
constexpr std::size_t kMinRhsBytes = 8 + 8;
constexpr std::size_t kMinTelemetryBytes = 4 * 8;
constexpr std::size_t kMinSolveBytes = 8 + (2 * 8 + 12 * 8 + 1 + 6 * 8 + 8 + 1 + 8 + 2 * 4);

/// Read a u32 list count and refuse it when it exceeds `cap` or when the
/// bytes left cannot hold that many entries of `min_entry_bytes` each.
std::uint32_t read_count(WireReader& r, std::size_t cap, std::size_t min_entry_bytes,
                         const char* what) {
  const std::size_t at = r.offset();
  const std::uint32_t count = r.u32();
  if (count > cap || count > r.remaining() / min_entry_bytes) throw WireError(what, at);
  return count;
}

std::uint8_t checked_enum(WireReader& r, std::uint8_t max, const char* what) {
  const std::size_t at = r.offset();
  const std::uint8_t v = r.u8();
  if (v > max) throw WireError(what, at);
  return v;
}

std::size_t read_dimension(WireReader& r) {
  const std::size_t at = r.offset();
  const std::uint32_t n = r.u32();
  if (n < 1 || n > kMaxDimension) throw WireError("matrix dimension out of range", at);
  return n;
}

// --- options ---------------------------------------------------------------
// Fixed-size block, every QsvtIrOptions field in declaration order. The
// encoder and decoder must stay in lockstep; the JSON round-trip parity
// test is what catches a drifted field.

void write_options(WireWriter& w, const solver::QsvtIrOptions& o) {
  w.u8(static_cast<std::uint8_t>(o.qsvt.backend))
      .u8(static_cast<std::uint8_t>(o.qsvt.precision))
      .u8(static_cast<std::uint8_t>(o.qsvt.poly_method))
      .u8(static_cast<std::uint8_t>(o.qsvt.encoding))
      .u8(o.use_brent ? 1 : 0)
      .u8(static_cast<std::uint8_t>(o.residual_precision))
      .f64(o.eps)
      .i64(o.max_iterations)
      .f64(o.qsvt.eps_l)
      .f64(o.qsvt.kappa)
      .f64(o.qsvt.kappa_margin)
      .u64(o.qsvt.shots)
      .u64(o.qsvt.seed)
      .f64(o.qsvt.noise.depolarizing_per_gate)
      .f64(o.qsvt.noise.damping_per_gate)
      .i64(o.qsvt.qsp_options.max_fpi_iterations)
      .i64(o.qsvt.qsp_options.max_newton_iterations)
      .i64(o.qsvt.qsp_options.max_lbfgs_iterations)
      .f64(o.qsvt.qsp_options.tolerance)
      .f64(o.qsvt.qsp_options.lbfgs_threshold)
      .u8(o.qsvt.qsp_options.enable_newton ? 1 : 0)
      .u8(o.qsvt.qsp_options.enable_lbfgs ? 1 : 0)
      .f64(o.escalation.stall_ratio)
      .f64(0.0)  // reserved: the retired half-tier floor
      .f64(o.escalation.single_floor);
}

solver::QsvtIrOptions read_options(WireReader& r) {
  solver::QsvtIrOptions o;
  o.qsvt.backend = static_cast<qsvt::Backend>(checked_enum(r, 1, "unknown backend"));
  o.qsvt.precision = static_cast<qsvt::QpuPrecision>(checked_enum(r, 3, "unknown precision"));
  o.qsvt.poly_method =
      static_cast<qsvt::PolyMethod>(checked_enum(r, 1, "unknown poly method"));
  o.qsvt.encoding = static_cast<qsvt::EncodingKind>(checked_enum(r, 2, "unknown encoding"));
  o.use_brent = checked_enum(r, 1, "bad use_brent flag") != 0;
  o.residual_precision = static_cast<solver::ResidualPrecision>(
      checked_enum(r, 1, "unknown residual precision"));
  o.eps = r.f64();
  o.max_iterations = static_cast<int>(service::checked_iterations(r.i64()));
  o.qsvt.eps_l = r.f64();
  o.qsvt.kappa = r.f64();
  o.qsvt.kappa_margin = r.f64();
  o.qsvt.shots = r.u64();
  expects(o.qsvt.shots <= service::kMaxShots, "request: shots out of range");
  o.qsvt.seed = r.u64();
  o.qsvt.noise.depolarizing_per_gate = r.f64();
  o.qsvt.noise.damping_per_gate = r.f64();
  auto& s = o.qsvt.qsp_options;
  s.max_fpi_iterations = static_cast<int>(service::checked_iterations(r.i64()));
  s.max_newton_iterations = static_cast<int>(service::checked_iterations(r.i64()));
  s.max_lbfgs_iterations = static_cast<int>(service::checked_iterations(r.i64()));
  s.tolerance = r.f64();
  s.lbfgs_threshold = r.f64();
  s.enable_newton = checked_enum(r, 1, "bad enable_newton flag") != 0;
  s.enable_lbfgs = checked_enum(r, 1, "bad enable_lbfgs flag") != 0;
  o.escalation.stall_ratio = r.f64();
  (void)r.f64();  // reserved: the retired half-tier floor
  o.escalation.single_floor = r.f64();
  return o;
}

// --- matrices --------------------------------------------------------------

void write_matrix(WireWriter& w, const linalg::Matrix<double>& A) {
  w.u32(static_cast<std::uint32_t>(A.rows())).u32(static_cast<std::uint32_t>(A.cols()));
  w.f64_array(A.data(), A.rows() * A.cols());
}

linalg::Matrix<double> read_matrix(WireReader& r) {
  const std::size_t rows = read_dimension(r);
  const std::size_t cols = read_dimension(r);
  const std::size_t at = r.offset();
  const std::uint64_t declared = r.u64();
  if (declared != rows * cols) throw WireError("matrix element count mismatch", at);
  // Checked before the allocation it sizes: a short frame may not claim
  // a cap-sized matrix.
  if (r.remaining() / sizeof(double) < rows * cols) {
    throw WireError("truncated matrix elements", r.offset());
  }
  linalg::Matrix<double> A(rows, cols);
  r.read_doubles(A.data(), rows * cols);
  return A;
}

// --- vectors ---------------------------------------------------------------

void write_vector(WireWriter& w, const linalg::Vector<double>& v) {
  w.f64_array(v.data(), v.size());
}

linalg::Vector<double> read_vector(WireReader& r, std::size_t max_len) {
  std::vector<double> out;
  r.f64_array(out, max_len);
  return out;
}

// --- comm log --------------------------------------------------------------

void write_comm(WireWriter& w, const hybrid::CommLog& log) {
  w.u32(static_cast<std::uint32_t>(log.events().size()));
  for (const auto& e : log.events()) {
    w.u8(e.direction == hybrid::Direction::kCpuToQpu ? 0 : 1)
        .str(e.payload)
        .u64(e.bytes)
        .i64(e.iteration);
  }
}

hybrid::CommLog read_comm(WireReader& r) {
  hybrid::CommLog log;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto dir = checked_enum(r, 1, "unknown comm direction") == 0
                         ? hybrid::Direction::kCpuToQpu
                         : hybrid::Direction::kQpuToCpu;
    std::string payload = r.str(kMaxPayloadString);
    const std::uint64_t bytes = r.u64();
    const int iteration = static_cast<int>(r.i64());
    log.record(dir, std::move(payload), bytes, iteration);
  }
  return log;
}

// --- reports ---------------------------------------------------------------

void write_report(WireWriter& w, const solver::QsvtIrReport& rep) {
  write_vector(w, rep.x);
  w.f64_array(rep.scaled_residuals.data(), rep.scaled_residuals.size());
  w.i64(rep.iterations)
      .u8(rep.converged ? 1 : 0)
      .f64(rep.kappa)
      .f64(rep.eps_l_requested)
      .f64(rep.eps_l_effective)
      .i64(rep.poly_degree)
      .f64(rep.poly_scale)
      .u64(rep.theoretical_iteration_bound)
      .u64(rep.total_be_calls)
      .u64(rep.program_source_gates)
      .u64(rep.program_ops)
      .u64(rep.program_depth)
      .f64(rep.program_compile_seconds);
  // Each tier array keeps the retired half tier's leading slot, as 0.
  w.u64(0);
  for (const auto v : rep.tier_solves) w.u64(v);
  w.u64(0);
  for (const auto v : rep.tier_iterations) w.u64(v);
  w.u64(rep.precision_switches)
      .u8(rep.dd128_verified ? 1 : 0)
      .f64(rep.dd128_final_residual);
  w.u32(static_cast<std::uint32_t>(rep.solves.size()));
  for (const auto& s : rep.solves) {
    w.f64(s.mu).f64(s.success_probability).u64(s.be_calls).u64(s.circuit_gates);
  }
  write_comm(w, rep.comm);
}

solver::QsvtIrReport read_report(WireReader& r) {
  solver::QsvtIrReport rep;
  rep.x = read_vector(r, kMaxDimension);
  r.f64_array(rep.scaled_residuals, kMaxPerSolveEntries);
  rep.iterations = static_cast<int>(r.i64());
  rep.converged = r.u8() != 0;
  rep.kappa = r.f64();
  rep.eps_l_requested = r.f64();
  rep.eps_l_effective = r.f64();
  rep.poly_degree = static_cast<int>(r.i64());
  rep.poly_scale = r.f64();
  rep.theoretical_iteration_bound = r.u64();
  rep.total_be_calls = r.u64();
  rep.program_source_gates = r.u64();
  rep.program_ops = r.u64();
  rep.program_depth = r.u64();
  rep.program_compile_seconds = r.f64();
  (void)r.u64();  // reserved: retired half-tier solves
  for (auto& v : rep.tier_solves) v = r.u64();
  (void)r.u64();  // reserved: retired half-tier iterations
  for (auto& v : rep.tier_iterations) v = r.u64();
  rep.precision_switches = r.u64();
  rep.dd128_verified = r.u8() != 0;
  rep.dd128_final_residual = r.f64();
  const std::uint32_t telemetry =
      read_count(r, kMaxPerSolveEntries, kMinTelemetryBytes, "telemetry count out of range");
  rep.solves.reserve(telemetry);
  for (std::uint32_t i = 0; i < telemetry; ++i) {
    solver::SolveTelemetry s;
    s.mu = r.f64();
    s.success_probability = r.f64();
    s.be_calls = r.u64();
    s.circuit_gates = r.u64();
    rep.solves.push_back(s);
  }
  rep.comm = read_comm(r);
  return rep;
}

/// Reader over a frame's payload with absolute (whole-frame) offsets in
/// the errors, plus the tag check every decode entry point shares.
/// `version_out` receives the negotiated frame version for decoders that
/// branch on it (the request decoder's v3 trailing trace field).
WireReader payload_reader(std::string_view frame, FrameTag want,
                          std::uint8_t* version_out = nullptr) {
  const FrameView view = open_frame(frame);
  if (view.tag != want) throw WireError("unexpected frame tag", 5);
  if (version_out) *version_out = view.version;
  return WireReader(view.payload, kFrameHeaderBytes);
}

}  // namespace

bool is_frame_content_type(std::string_view value) {
  // Strip parameters (";charset=...") and surrounding spaces.
  const auto semi = value.find(';');
  if (semi != std::string_view::npos) value = value.substr(0, semi);
  while (!value.empty() && value.front() == ' ') value.remove_prefix(1);
  while (!value.empty() && value.back() == ' ') value.remove_suffix(1);
  const std::string_view want = kContentType;
  if (value.size() != want.size()) return false;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) != want[i]) return false;
  }
  return true;
}

std::string encode_request(const service::SolveRequest& request) {
  WireWriter w;
  w.str(request.id);
  if (request.matrix_ref != 0) {
    w.u8(1).u64(request.matrix_ref);
  } else {
    w.u8(0);
    write_matrix(w, request.A);
  }
  write_options(w, request.options);
  w.u32(static_cast<std::uint32_t>(request.rhs.size()));
  for (const auto& b : request.rhs) write_vector(w, b);
  // v3 append-only extension: the client trace id rides at the END of
  // the payload (zero = none), so the field is also reachable by a
  // fixed-offset-from-the-end peek without decoding the vectors.
  w.u64(request.trace_id.hi).u64(request.trace_id.lo);
  return seal_frame(FrameTag::kSolveRequest, w.take());
}

service::SolveRequest decode_request(std::string_view frame,
                                     const service::MatrixResolver& resolve) {
  std::uint8_t version = kWireVersion;
  WireReader r = payload_reader(frame, FrameTag::kSolveRequest, &version);
  service::SolveRequest req;
  req.id = r.str(kMaxIdBytes);
  const std::uint8_t kind = checked_enum(r, 1, "unknown matrix kind");
  if (kind == 1) {
    req.matrix_ref = r.u64();
    if (resolve) {
      req.shared_A = resolve(req.matrix_ref);
      expects(req.shared_A != nullptr, "wire: unknown matrix_ref");
    }
  } else {
    req.A = read_matrix(r);
  }
  req.options = read_options(r);

  const std::size_t at = r.offset();
  const std::uint32_t count =
      read_count(r, kMaxRhsCount, kMinRhsBytes, "right-hand side count out of range");
  if (count < 1) throw WireError("request needs at least one rhs", at);
  // Resolved requests check RHS length against the matrix; unresolved
  // by-ref ones can only check mutual consistency here — the final check
  // against the store entry runs at solve time.
  const std::size_t n = req.matrix().rows();
  req.rhs.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::size_t vec_at = r.offset();
    auto b = read_vector(r, kMaxDimension);
    const std::size_t want = n != 0 ? n : (req.rhs.empty() ? b.size() : req.rhs.front().size());
    if (b.empty() || b.size() != want) throw WireError("rhs dimension mismatch", vec_at);
    req.rhs.push_back(std::move(b));
  }
  // v2 frames end here; v3 appended the trace id (v2 defaults to zero).
  if (version >= 3) {
    req.trace_id.hi = r.u64();
    req.trace_id.lo = r.u64();
  }
  r.expect_done();
  return req;
}

trace::TraceId peek_request_trace(std::string_view frame) {
  const FrameView view = open_frame(frame);
  if (view.tag != FrameTag::kSolveRequest) throw WireError("unexpected frame tag", 5);
  trace::TraceId id;
  if (view.version >= 3 && view.payload.size() >= 16) {
    WireReader r(view.payload.substr(view.payload.size() - 16),
                 kFrameHeaderBytes + view.payload.size() - 16);
    id.hi = r.u64();
    id.lo = r.u64();
  }
  return id;
}

std::optional<std::uint64_t> peek_request_matrix_ref(std::string_view frame) {
  WireReader r = payload_reader(frame, FrameTag::kSolveRequest);
  r.str(kMaxIdBytes);
  const std::uint8_t kind = checked_enum(r, 1, "unknown matrix kind");
  if (kind == 1) return r.u64();
  return std::nullopt;
}

std::uint64_t request_affinity_key(std::string_view frame) {
  WireReader r = payload_reader(frame, FrameTag::kSolveRequest);
  r.str(kMaxIdBytes);
  const std::uint8_t kind = checked_enum(r, 1, "unknown matrix kind");
  if (kind == 1) return r.u64();
  // Inline matrix: stream the content hash without materializing it, so
  // the key equals the matrix_ref a PUT of the same matrix would return.
  const std::size_t rows = read_dimension(r);
  const std::size_t cols = read_dimension(r);
  const std::size_t at = r.offset();
  if (r.u64() != rows * cols) throw WireError("matrix element count mismatch", at);
  Fnv1a h;
  h.u64(rows).u64(cols);
  for (std::size_t i = 0; i < rows * cols; ++i) h.f64(r.f64());
  return h.digest();
}

std::string encode_result(const service::SolveResult& result) {
  WireWriter w;
  w.str(result.id)
      .u64(result.fp.matrix_hash)
      .u64(result.fp.options_hash)
      .u8(result.cache_hit ? 1 : 0)
      .u8(result.all_converged ? 1 : 0)
      .f64(result.prepare_seconds)
      .f64(result.total_seconds)
      .u64(result.panels_executed)
      .u64(result.panel_lanes);
  w.u32(static_cast<std::uint32_t>(result.solves.size()));
  for (const auto& s : result.solves) {
    w.f64(s.solve_seconds);
    write_report(w, s.report);
  }
  return seal_frame(FrameTag::kSolveResult, w.take());
}

service::SolveResult decode_result(std::string_view frame) {
  WireReader r = payload_reader(frame, FrameTag::kSolveResult);
  service::SolveResult result;
  result.id = r.str(kMaxIdBytes);
  result.fp.matrix_hash = r.u64();
  result.fp.options_hash = r.u64();
  result.cache_hit = r.u8() != 0;
  result.all_converged = r.u8() != 0;
  result.prepare_seconds = r.f64();
  result.total_seconds = r.f64();
  result.panels_executed = r.u64();
  result.panel_lanes = r.u64();
  const std::uint32_t count =
      read_count(r, kMaxRhsCount, kMinSolveBytes, "solve entry count out of range");
  result.solves.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    service::RhsResult s;
    s.solve_seconds = r.f64();
    s.report = read_report(r);
    result.solves.push_back(std::move(s));
  }
  r.expect_done();
  return result;
}

std::string encode_matrix(const linalg::Matrix<double>& A) {
  WireWriter w;
  write_matrix(w, A);
  return seal_frame(FrameTag::kMatrix, w.take());
}

linalg::Matrix<double> decode_matrix(std::string_view frame) {
  WireReader r = payload_reader(frame, FrameTag::kMatrix);
  linalg::Matrix<double> A = read_matrix(r);
  r.expect_done();
  return A;
}

std::string encode_shard_exchange(std::uint64_t group, std::uint32_t from, std::uint64_t seq,
                                  std::string_view payload) {
  WireWriter w;
  w.u64(group).u32(from).u64(seq).u64(payload.size());
  std::string out = w.take();
  out.append(payload.data(), payload.size());
  return seal_frame(FrameTag::kShardExchange, std::move(out));
}

ShardExchange decode_shard_exchange(std::string_view frame) {
  WireReader r = payload_reader(frame, FrameTag::kShardExchange);
  ShardExchange ex;
  ex.group = r.u64();
  ex.from = r.u32();
  ex.seq = r.u64();
  const std::size_t at = r.offset();
  const std::uint64_t len = r.u64();
  // The amplitude block is the rest of the frame, exactly: its length is
  // declared so truncation is distinguishable from trailing garbage.
  if (len != r.remaining()) throw WireError("shard payload length mismatch", at);
  ex.payload.resize(static_cast<std::size_t>(len));
  if (len != 0) r.read_bytes(ex.payload.data(), static_cast<std::size_t>(len));
  r.expect_done();
  return ex;
}

std::uint64_t hash_matrix_frame(std::string_view frame) {
  WireReader r = payload_reader(frame, FrameTag::kMatrix);
  const std::size_t rows = read_dimension(r);
  const std::size_t cols = read_dimension(r);
  const std::size_t at = r.offset();
  if (r.u64() != rows * cols) throw WireError("matrix element count mismatch", at);
  Fnv1a h;
  h.u64(rows).u64(cols);
  for (std::size_t i = 0; i < rows * cols; ++i) h.f64(r.f64());
  return h.digest();
}

}  // namespace mpqls::wire
