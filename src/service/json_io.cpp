#include "service/json_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstdlib>

#include "common/contracts.hpp"
#include "common/rng.hpp"
#include "linalg/random_matrix.hpp"
#include "linalg/sparse.hpp"
#include "service/limits.hpp"

namespace mpqls::service {

namespace {

Json vector_to_json(const linalg::Vector<double>& v) {
  Json a = Json::array();
  for (double x : v) a.push_back(x);
  return a;
}

linalg::Vector<double> vector_from_json(const Json& j) {
  linalg::Vector<double> v;
  v.reserve(j.as_array().size());
  for (const auto& x : j.as_array()) v.push_back(x.as_number());
  return v;
}

const char* backend_name(qsvt::Backend b) {
  return b == qsvt::Backend::kGateLevel ? "gate" : "matrix";
}
qsvt::Backend backend_from(const std::string& s) {
  if (s == "gate") return qsvt::Backend::kGateLevel;
  expects(s == "matrix", "json: unknown backend");
  return qsvt::Backend::kMatrixFunction;
}

const char* precision_name(qsvt::QpuPrecision p) {
  switch (p) {
    case qsvt::QpuPrecision::kSingle: return "single";
    case qsvt::QpuPrecision::kHalf: return "half";
    case qsvt::QpuPrecision::kAdaptive: return "adaptive";
    default: return "double";
  }
}
qsvt::QpuPrecision precision_from(const std::string& s) {
  if (s == "single") return qsvt::QpuPrecision::kSingle;
  if (s == "half") return qsvt::QpuPrecision::kHalf;  // retired tier: runs single
  if (s == "adaptive") return qsvt::QpuPrecision::kAdaptive;
  expects(s == "double", "json: unknown precision");
  return qsvt::QpuPrecision::kDouble;
}

const char* poly_method_name(qsvt::PolyMethod m) {
  return m == qsvt::PolyMethod::kAnalytic ? "analytic" : "interpolated";
}
qsvt::PolyMethod poly_method_from(const std::string& s) {
  if (s == "analytic") return qsvt::PolyMethod::kAnalytic;
  expects(s == "interpolated", "json: unknown poly method");
  return qsvt::PolyMethod::kInterpolated;
}

const char* encoding_name(qsvt::EncodingKind e) {
  switch (e) {
    case qsvt::EncodingKind::kLcuPauli: return "lcu";
    case qsvt::EncodingKind::kTridiagonal: return "tridiagonal";
    default: return "dense";
  }
}
qsvt::EncodingKind encoding_from(const std::string& s) {
  if (s == "lcu") return qsvt::EncodingKind::kLcuPauli;
  if (s == "tridiagonal") return qsvt::EncodingKind::kTridiagonal;
  expects(s == "dense", "json: unknown encoding");
  return qsvt::EncodingKind::kDenseEmbedding;
}

const char* residual_precision_name(solver::ResidualPrecision p) {
  return p == solver::ResidualPrecision::kDoubleDouble ? "double-double" : "double";
}
solver::ResidualPrecision residual_precision_from(const std::string& s) {
  if (s == "double-double") return solver::ResidualPrecision::kDoubleDouble;
  expects(s == "double", "json: unknown residual precision");
  return solver::ResidualPrecision::kDouble;
}

Json options_to_json(const solver::QsvtIrOptions& o) {
  Json q = Json::object();
  q["backend"] = backend_name(o.qsvt.backend);
  q["precision"] = precision_name(o.qsvt.precision);
  q["poly_method"] = poly_method_name(o.qsvt.poly_method);
  q["encoding"] = encoding_name(o.qsvt.encoding);
  q["eps_l"] = o.qsvt.eps_l;
  q["kappa"] = o.qsvt.kappa;
  q["kappa_margin"] = o.qsvt.kappa_margin;
  q["shots"] = o.qsvt.shots;
  q["seed"] = o.qsvt.seed;
  Json noise = Json::object();
  noise["depolarizing"] = o.qsvt.noise.depolarizing_per_gate;
  noise["damping"] = o.qsvt.noise.damping_per_gate;
  q["noise"] = std::move(noise);
  // qsp_options are part of the context fingerprint, so a request only
  // round-trips losslessly if they travel too.
  Json qsp = Json::object();
  qsp["max_fpi_iterations"] = o.qsvt.qsp_options.max_fpi_iterations;
  qsp["max_newton_iterations"] = o.qsvt.qsp_options.max_newton_iterations;
  qsp["tolerance"] = o.qsvt.qsp_options.tolerance;
  qsp["enable_newton"] = o.qsvt.qsp_options.enable_newton;
  qsp["enable_lbfgs"] = o.qsvt.qsp_options.enable_lbfgs;
  qsp["lbfgs_threshold"] = o.qsvt.qsp_options.lbfgs_threshold;
  qsp["max_lbfgs_iterations"] = o.qsvt.qsp_options.max_lbfgs_iterations;
  q["qsp"] = std::move(qsp);

  Json j = Json::object();
  j["eps"] = o.eps;
  j["max_iterations"] = o.max_iterations;
  j["use_brent"] = o.use_brent;
  j["residual_precision"] = residual_precision_name(o.residual_precision);
  Json esc = Json::object();
  esc["stall_ratio"] = o.escalation.stall_ratio;
  esc["single_floor"] = o.escalation.single_floor;
  j["escalation"] = std::move(esc);
  j["qsvt"] = std::move(q);
  return j;
}

solver::QsvtIrOptions options_from_json(const Json& j) {
  solver::QsvtIrOptions o;
  o.eps = j.number_or("eps", o.eps);
  o.max_iterations =
      static_cast<int>(checked_iterations(j.int_or("max_iterations", o.max_iterations)));
  o.use_brent = j.bool_or("use_brent", o.use_brent);
  o.residual_precision = residual_precision_from(
      j.string_or("residual_precision", residual_precision_name(o.residual_precision)));
  if (j.contains("escalation")) {
    const Json& esc = j.at("escalation");
    o.escalation.stall_ratio = esc.number_or("stall_ratio", o.escalation.stall_ratio);
    o.escalation.single_floor = esc.number_or("single_floor", o.escalation.single_floor);
  }
  if (j.contains("qsvt")) {
    const Json& q = j.at("qsvt");
    o.qsvt.backend = backend_from(q.string_or("backend", backend_name(o.qsvt.backend)));
    o.qsvt.precision =
        precision_from(q.string_or("precision", precision_name(o.qsvt.precision)));
    o.qsvt.poly_method =
        poly_method_from(q.string_or("poly_method", poly_method_name(o.qsvt.poly_method)));
    o.qsvt.encoding = encoding_from(q.string_or("encoding", encoding_name(o.qsvt.encoding)));
    o.qsvt.eps_l = q.number_or("eps_l", o.qsvt.eps_l);
    o.qsvt.kappa = q.number_or("kappa", o.qsvt.kappa);
    o.qsvt.kappa_margin = q.number_or("kappa_margin", o.qsvt.kappa_margin);
    o.qsvt.shots = q.uint_or("shots", 0);
    expects(o.qsvt.shots <= kMaxShots, "json: shots out of range");
    o.qsvt.seed = q.uint_or("seed", o.qsvt.seed);
    if (q.contains("noise")) {
      o.qsvt.noise.depolarizing_per_gate = q.at("noise").number_or("depolarizing", 0.0);
      o.qsvt.noise.damping_per_gate = q.at("noise").number_or("damping", 0.0);
    }
    if (q.contains("qsp")) {
      const Json& qsp = q.at("qsp");
      auto& s = o.qsvt.qsp_options;
      s.max_fpi_iterations = static_cast<int>(
          checked_iterations(qsp.int_or("max_fpi_iterations", s.max_fpi_iterations)));
      s.max_newton_iterations = static_cast<int>(
          checked_iterations(qsp.int_or("max_newton_iterations", s.max_newton_iterations)));
      s.tolerance = qsp.number_or("tolerance", s.tolerance);
      s.enable_newton = qsp.bool_or("enable_newton", s.enable_newton);
      s.enable_lbfgs = qsp.bool_or("enable_lbfgs", s.enable_lbfgs);
      s.lbfgs_threshold = qsp.number_or("lbfgs_threshold", s.lbfgs_threshold);
      s.max_lbfgs_iterations = static_cast<int>(
          checked_iterations(qsp.int_or("max_lbfgs_iterations", s.max_lbfgs_iterations)));
    }
  }
  return o;
}

Json comm_to_json(const hybrid::CommLog& log) {
  const auto summary = hybrid::summarize(log);
  Json s = Json::object();
  s["cpu_to_qpu_bytes"] = summary.cpu_to_qpu_bytes;
  s["qpu_to_cpu_bytes"] = summary.qpu_to_cpu_bytes;
  s["setup_bytes"] = summary.setup_bytes;

  Json events = Json::array();
  for (const auto& e : log.events()) {
    Json ev = Json::object();
    ev["dir"] = (e.direction == hybrid::Direction::kCpuToQpu) ? "cpu->qpu" : "qpu->cpu";
    ev["payload"] = e.payload;
    ev["bytes"] = e.bytes;
    ev["iteration"] = static_cast<std::int64_t>(e.iteration);
    events.push_back(std::move(ev));
  }
  Json j = Json::object();
  j["summary"] = std::move(s);
  j["events"] = std::move(events);
  return j;
}

hybrid::CommLog comm_from_json(const Json& j) {
  hybrid::CommLog log;
  for (const auto& ev : j.at("events").as_array()) {
    const auto dir = ev.at("dir").as_string() == "cpu->qpu" ? hybrid::Direction::kCpuToQpu
                                                            : hybrid::Direction::kQpuToCpu;
    log.record(dir, ev.at("payload").as_string(), ev.at("bytes").as_uint(),
               static_cast<int>(ev.at("iteration").as_int()));
  }
  return log;
}

Json report_to_json(const solver::QsvtIrReport& r) {
  Json j = Json::object();
  j["x"] = vector_to_json(r.x);
  Json residuals = Json::array();
  for (double w : r.scaled_residuals) residuals.push_back(w);
  j["scaled_residuals"] = std::move(residuals);
  j["iterations"] = r.iterations;
  j["converged"] = r.converged;
  j["kappa"] = r.kappa;
  j["eps_l_requested"] = r.eps_l_requested;
  j["eps_l_effective"] = r.eps_l_effective;
  j["poly_degree"] = r.poly_degree;
  j["poly_scale"] = r.poly_scale;
  j["theoretical_iteration_bound"] = r.theoretical_iteration_bound;
  j["total_be_calls"] = r.total_be_calls;
  // Execution-engine telemetry: how the cached circuit compiled (zeros for
  // the matrix-function backend).
  Json program = Json::object();
  program["source_gates"] = r.program_source_gates;
  program["ops"] = r.program_ops;
  program["depth"] = r.program_depth;
  program["compile_seconds"] = r.program_compile_seconds;
  j["program"] = std::move(program);
  // Adaptive-precision schedule telemetry: which tier ran what.
  Json tiers = Json::object();
  tiers["single_solves"] = r.tier_solves[solver::kTierSingle];
  tiers["double_solves"] = r.tier_solves[solver::kTierDouble];
  tiers["single_iterations"] = r.tier_iterations[solver::kTierSingle];
  tiers["double_iterations"] = r.tier_iterations[solver::kTierDouble];
  j["precision_tiers"] = std::move(tiers);
  j["precision_switches"] = r.precision_switches;
  j["dd128_verified"] = r.dd128_verified;
  j["dd128_final_residual"] = r.dd128_final_residual;
  Json solves = Json::array();
  for (const auto& s : r.solves) {
    Json sj = Json::object();
    sj["mu"] = s.mu;
    sj["success_probability"] = s.success_probability;
    sj["be_calls"] = s.be_calls;
    sj["circuit_gates"] = s.circuit_gates;
    solves.push_back(std::move(sj));
  }
  j["solves"] = std::move(solves);
  j["comm"] = comm_to_json(r.comm);
  return j;
}

solver::QsvtIrReport report_from_json(const Json& j) {
  solver::QsvtIrReport r;
  r.x = vector_from_json(j.at("x"));
  for (const auto& w : j.at("scaled_residuals").as_array()) {
    r.scaled_residuals.push_back(w.as_number());
  }
  r.iterations = static_cast<int>(j.at("iterations").as_int());
  r.converged = j.at("converged").as_bool();
  r.kappa = j.at("kappa").as_number();
  r.eps_l_requested = j.at("eps_l_requested").as_number();
  r.eps_l_effective = j.at("eps_l_effective").as_number();
  r.poly_degree = static_cast<int>(j.at("poly_degree").as_int());
  r.poly_scale = j.at("poly_scale").as_number();
  r.theoretical_iteration_bound = j.at("theoretical_iteration_bound").as_uint();
  r.total_be_calls = j.at("total_be_calls").as_uint();
  if (j.contains("program")) {  // absent in pre-exec-engine traces
    const Json& program = j.at("program");
    r.program_source_gates = program.uint_or("source_gates", 0);
    r.program_ops = program.uint_or("ops", 0);
    r.program_depth = program.uint_or("depth", 0);
    r.program_compile_seconds = program.number_or("compile_seconds", 0.0);
  }
  if (j.contains("precision_tiers")) {  // absent in pre-adaptive traces
    const Json& tiers = j.at("precision_tiers");
    r.tier_solves[solver::kTierSingle] = tiers.uint_or("single_solves", 0);
    r.tier_solves[solver::kTierDouble] = tiers.uint_or("double_solves", 0);
    r.tier_iterations[solver::kTierSingle] = tiers.uint_or("single_iterations", 0);
    r.tier_iterations[solver::kTierDouble] = tiers.uint_or("double_iterations", 0);
  }
  if (j.contains("precision_switches")) r.precision_switches = j.at("precision_switches").as_uint();
  if (j.contains("dd128_verified")) r.dd128_verified = j.at("dd128_verified").as_bool();
  if (j.contains("dd128_final_residual")) {
    r.dd128_final_residual = j.at("dd128_final_residual").as_number();
  }
  for (const auto& sj : j.at("solves").as_array()) {
    solver::SolveTelemetry s;
    s.mu = sj.at("mu").as_number();
    s.success_probability = sj.at("success_probability").as_number();
    s.be_calls = sj.at("be_calls").as_uint();
    s.circuit_gates = sj.at("circuit_gates").as_uint();
    r.solves.push_back(s);
  }
  r.comm = comm_from_json(j.at("comm"));
  return r;
}

}  // namespace

Json to_json(const SolveResult& result) {
  Json j = Json::object();
  j["id"] = result.id;
  Json fp = Json::object();
  fp["matrix"] = u64_hex(result.fp.matrix_hash);
  fp["options"] = u64_hex(result.fp.options_hash);
  j["fingerprint"] = std::move(fp);
  j["cache_hit"] = result.cache_hit;
  j["prepare_seconds"] = result.prepare_seconds;
  j["total_seconds"] = result.total_seconds;
  j["all_converged"] = result.all_converged;
  j["panels_executed"] = static_cast<double>(result.panels_executed);
  j["panel_lanes"] = static_cast<double>(result.panel_lanes);
  if (result.shard_world > 1) {
    Json d = Json::object();
    d["shard_rank"] = static_cast<double>(result.shard_rank);
    d["shard_world"] = static_cast<double>(result.shard_world);
    d["exchange_rounds"] = static_cast<double>(result.dist_exchange_rounds);
    d["bytes_moved"] = static_cast<double>(result.dist_bytes_moved);
    d["plan_naive_rounds"] = static_cast<double>(result.dist_plan_naive_rounds);
    d["plan_scheduled_rounds"] = static_cast<double>(result.dist_plan_scheduled_rounds);
    j["dist"] = std::move(d);
  }
  Json solves = Json::array();
  for (const auto& s : result.solves) {
    Json sj = Json::object();
    sj["solve_seconds"] = s.solve_seconds;
    sj["report"] = report_to_json(s.report);
    solves.push_back(std::move(sj));
  }
  j["solves"] = std::move(solves);
  return j;
}

SolveResult result_from_json(const Json& j) {
  SolveResult r;
  r.id = j.at("id").as_string();
  r.fp.matrix_hash = u64_from_hex(j.at("fingerprint").at("matrix").as_string());
  r.fp.options_hash = u64_from_hex(j.at("fingerprint").at("options").as_string());
  r.cache_hit = j.at("cache_hit").as_bool();
  r.prepare_seconds = j.at("prepare_seconds").as_number();
  r.total_seconds = j.at("total_seconds").as_number();
  r.all_converged = j.at("all_converged").as_bool();
  // Panel telemetry arrived after the trace format; old traces omit it.
  if (j.contains("panels_executed")) r.panels_executed = j.at("panels_executed").as_uint();
  if (j.contains("panel_lanes")) r.panel_lanes = j.at("panel_lanes").as_uint();
  if (j.contains("dist")) {
    const Json& d = j.at("dist");
    r.shard_rank = static_cast<std::uint32_t>(d.uint_or("shard_rank", 0));
    r.shard_world = static_cast<std::uint32_t>(d.uint_or("shard_world", 0));
    r.dist_exchange_rounds = d.uint_or("exchange_rounds", 0);
    r.dist_bytes_moved = d.uint_or("bytes_moved", 0);
    r.dist_plan_naive_rounds = d.uint_or("plan_naive_rounds", 0);
    r.dist_plan_scheduled_rounds = d.uint_or("plan_scheduled_rounds", 0);
  }
  for (const auto& sj : j.at("solves").as_array()) {
    RhsResult s;
    s.solve_seconds = sj.at("solve_seconds").as_number();
    s.report = report_from_json(sj.at("report"));
    r.solves.push_back(std::move(s));
  }
  return r;
}

Json to_json(const SolveRequest& request) {
  Json j = Json::object();
  j["id"] = request.id;
  if (request.matrix_ref != 0) {
    // By-reference form: the 16-char hash replaces the matrix object.
    j["matrix_ref"] = u64_hex(request.matrix_ref);
  } else {
    Json m = Json::object();
    m["scenario"] = "dense";
    Json rows = Json::array();
    for (std::size_t i = 0; i < request.A.rows(); ++i) {
      Json row = Json::array();
      for (std::size_t c = 0; c < request.A.cols(); ++c) row.push_back(request.A(i, c));
      rows.push_back(std::move(row));
    }
    m["rows"] = std::move(rows);
    j["matrix"] = std::move(m);
  }
  Json rhs = Json::object();
  Json vectors = Json::array();
  for (const auto& b : request.rhs) vectors.push_back(vector_to_json(b));
  rhs["vectors"] = std::move(vectors);
  j["rhs"] = std::move(rhs);
  j["options"] = options_to_json(request.options);
  // Optional body-level trace id — parity with the wire-v3 trailing
  // field (zero = absent in both codecs).
  if (!request.trace_id.zero()) j["trace_id"] = request.trace_id.hex();
  if (request.shard.distributed()) {
    Json s = Json::object();
    s["group"] = u64_hex(request.shard.group);
    s["rank"] = static_cast<double>(request.shard.rank);
    s["world"] = static_cast<double>(request.shard.world);
    Json peers = Json::array();
    for (const auto& p : request.shard.peers) peers.push_back(p);
    s["peers"] = std::move(peers);
    j["shard"] = std::move(s);
  }
  return j;
}

linalg::Matrix<double> matrix_from_json(const Json& m) {
  linalg::Matrix<double> A;
  const std::string scenario = m.string_or("scenario", "dense");
  if (scenario == "dense") {
    const auto& rows = m.at("rows").as_array();
    const std::size_t n = checked_dimension(rows.size());
    A = linalg::Matrix<double>(n, checked_dimension(rows[0].as_array().size()));
    for (std::size_t i = 0; i < n; ++i) {
      const auto& row = rows[i].as_array();
      expects(row.size() == A.cols(), "json: ragged matrix");
      for (std::size_t c = 0; c < row.size(); ++c) A(i, c) = row[c].as_number();
    }
  } else if (scenario == "poisson1d") {
    A = linalg::poisson1d(checked_dimension(m.at("n").as_uint()));
  } else if (scenario == "poisson2d") {
    const auto nx = static_cast<std::size_t>(m.at("nx").as_uint());
    const auto ny = static_cast<std::size_t>(m.at("ny").as_uint());
    expects(nx >= 1 && ny >= 1 && nx <= kMaxDimension && ny <= kMaxDimension &&
                nx * ny <= kMaxDimension,
            "json: matrix dimension out of range");
    A = linalg::CsrMatrix::dirichlet_laplacian_2d(nx, ny).to_dense();
  } else if (scenario == "tridiagonal") {
    A = linalg::dirichlet_laplacian(checked_dimension(m.at("n").as_uint()));
  } else if (scenario == "random") {
    Xoshiro256 rng(m.uint_or("seed", 1));
    A = linalg::random_with_cond(rng, checked_dimension(m.at("n").as_uint()),
                                 m.number_or("kappa", 10.0));
  } else {
    expects(false, "json: unknown matrix scenario");
  }
  return A;
}

SolveRequest request_from_json(const Json& j, const MatrixResolver& resolve) {
  SolveRequest req;
  req.id = j.string_or("id", "");

  if (j.contains("matrix_ref")) {
    // By-reference request: the matrix was uploaded ahead of time
    // (PUT /v1/matrices) and travels as its content hash. Resolution needs
    // a store behind the resolver; a miss is the resolver's to signal
    // (MatrixRefMiss -> 404 at the daemon). Without a resolver the ref is
    // parsed but left unresolved — rhs generators that need dimensions
    // will then reject the request.
    req.matrix_ref = u64_from_hex(j.at("matrix_ref").as_string());
    expects(req.matrix_ref != 0, "json: matrix_ref must be nonzero");
    if (resolve) {
      req.shared_A = resolve(req.matrix_ref);
      expects(req.shared_A != nullptr, "json: unknown matrix_ref");
    }
  } else {
    req.A = matrix_from_json(j.at("matrix"));
  }

  // 0 only for an unresolved matrix_ref; explicit rhs vectors then check
  // mutual consistency here and against the store entry at solve time.
  const std::size_t n = req.matrix().rows();
  const Json& rhs = j.at("rhs");
  if (rhs.contains("vectors")) {
    expects(rhs.at("vectors").as_array().size() <= kMaxRhsCount, "json: too many right-hand sides");
    for (const auto& v : rhs.at("vectors").as_array()) {
      req.rhs.push_back(vector_from_json(v));
      const std::size_t want = n != 0 ? n : req.rhs.front().size();
      expects(!req.rhs.back().empty() && req.rhs.back().size() <= kMaxDimension &&
                  req.rhs.back().size() == want,
              "json: rhs dimension mismatch");
    }
  } else {
    expects(n != 0, "json: generated rhs needs a resolvable matrix");
    const std::string kind = rhs.at("kind").as_string();
    if (kind == "random") {
      Xoshiro256 rng(rhs.uint_or("seed", 7));
      const auto count = static_cast<std::size_t>(rhs.uint_or("count", 1));
      expects(count <= kMaxRhsCount, "json: too many right-hand sides");
      for (std::size_t k = 0; k < count; ++k) {
        req.rhs.push_back(linalg::random_unit_vector(rng, n));
      }
    } else if (kind == "point") {
      const auto idx = static_cast<std::size_t>(rhs.at("index").as_uint());
      expects(idx < n, "json: point rhs index out of range");
      linalg::Vector<double> b(n, 0.0);
      b[idx] = 1.0;
      req.rhs.push_back(std::move(b));
    } else {
      expects(false, "json: unknown rhs kind");
    }
  }
  expects(!req.rhs.empty(), "json: request needs at least one rhs");

  if (j.contains("options")) req.options = options_from_json(j.at("options"));
  if (j.contains("trace_id")) {
    expects(trace::TraceId::parse(j.at("trace_id").as_string(), req.trace_id),
            "json: trace_id must be 32 hex chars");
  }
  if (j.contains("shard")) {
    // Distributed placement, normally injected per rank by the
    // coordinator's shard-group fan-out (a hand-written block works the
    // same — the daemon only needs peers it can reach).
    const Json& s = j.at("shard");
    req.shard.group = u64_from_hex(s.at("group").as_string());
    req.shard.rank = static_cast<std::uint32_t>(s.at("rank").as_uint());
    req.shard.world = static_cast<std::uint32_t>(s.at("world").as_uint());
    expects(req.shard.world >= 2 && req.shard.world <= 64 &&
                (req.shard.world & (req.shard.world - 1)) == 0,
            "json: shard world must be a power of two in [2, 64]");
    expects(req.shard.rank < req.shard.world, "json: shard rank out of range");
    for (const auto& p : s.at("peers").as_array()) {
      req.shard.peers.push_back(p.as_string());
    }
    expects(req.shard.peers.size() == req.shard.world,
            "json: shard peers must list one endpoint per rank");
  }
  return req;
}

std::vector<SolveRequest> jobs_from_json(const Json& j) {
  std::vector<SolveRequest> jobs;
  for (const auto& job : j.at("jobs").as_array()) jobs.push_back(request_from_json(job));
  return jobs;
}

Json trace_to_json(const trace::Trace& trace) {
  Json j = Json::object();
  j["trace_id"] = trace.id().hex();
  j["spans_dropped"] = trace.dropped();
  Json spans = Json::array();
  for (const auto& span : trace.snapshot()) {
    Json s = Json::object();
    s["id"] = span.id;
    s["parent"] = span.parent;
    s["name"] = span.name;
    // Microseconds as doubles: lossless for any span a service job can
    // record, and directly human-scaled for latency work.
    s["start_us"] = static_cast<double>(span.start_ns) / 1e3;
    s["duration_us"] = static_cast<double>(span.duration_ns) / 1e3;
    if (span.running) s["running"] = true;
    if (!span.attrs.empty()) {
      // Split the recorder's compact "k=v,k=v" form into an object.
      Json attrs = Json::object();
      std::string_view rest = span.attrs;
      while (!rest.empty()) {
        const auto comma = rest.find(',');
        const std::string_view pair = rest.substr(0, comma);
        rest = comma == std::string_view::npos ? std::string_view{} : rest.substr(comma + 1);
        const auto eq = pair.find('=');
        if (eq == std::string_view::npos) continue;
        attrs[std::string(pair.substr(0, eq))] = std::string(pair.substr(eq + 1));
      }
      s["attrs"] = std::move(attrs);
    }
    spans.push_back(std::move(s));
  }
  j["spans"] = std::move(spans);
  return j;
}

}  // namespace mpqls::service
