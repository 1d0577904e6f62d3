#include "service/fingerprint.hpp"

#include <cstdio>

#include "common/hash.hpp"

namespace mpqls::service {

std::uint64_t hash_matrix(const linalg::Matrix<double>& A) {
  Fnv1a h;
  h.u64(A.rows()).u64(A.cols());
  for (std::size_t i = 0; i < A.rows(); ++i) {
    for (std::size_t j = 0; j < A.cols(); ++j) h.f64(A(i, j));
  }
  return h.digest();
}

std::uint64_t hash_options(const qsvt::QsvtOptions& options) {
  Fnv1a h;
  h.u64(static_cast<std::uint64_t>(options.backend));
  // A fixed precision keys on the tier it runs, so "half" and "single"
  // share one context; adaptive keys apart from double, because the
  // context's precision selects the refinement schedule.
  const qsvt::QpuPrecision precision = options.precision == qsvt::QpuPrecision::kAdaptive
                                           ? options.precision
                                           : qsvt::resolve_tier(options.precision);
  h.u64(static_cast<std::uint64_t>(precision));
  h.u64(static_cast<std::uint64_t>(options.poly_method));
  h.u64(static_cast<std::uint64_t>(options.encoding));
  h.f64(options.eps_l);
  h.f64(options.kappa);
  h.f64(options.kappa_margin);
  h.u64(options.shots);
  h.u64(options.seed);
  h.f64(options.noise.depolarizing_per_gate);
  h.f64(options.noise.damping_per_gate);
  h.i64(options.qsp_options.max_fpi_iterations);
  h.i64(options.qsp_options.max_newton_iterations);
  h.f64(options.qsp_options.tolerance);
  h.u64(options.qsp_options.enable_newton ? 1 : 0);
  h.u64(options.qsp_options.enable_lbfgs ? 1 : 0);
  h.f64(options.qsp_options.lbfgs_threshold);
  h.i64(options.qsp_options.max_lbfgs_iterations);
  return h.digest();
}

Fingerprint fingerprint(const linalg::Matrix<double>& A, const qsvt::QsvtOptions& options) {
  return {hash_matrix(A), hash_options(options)};
}

std::string to_string(const Fingerprint& fp) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "mtx:%016llx/opt:%016llx",
                static_cast<unsigned long long>(fp.matrix_hash),
                static_cast<unsigned long long>(fp.options_hash));
  return buf;
}

}  // namespace mpqls::service
