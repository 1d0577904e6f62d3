// Cache key for prepared QSVT solver contexts: a content hash of the
// matrix entries plus a hash of every QsvtOptions field that influences
// preparation. Two requests share a cached context exactly when both
// hashes agree — differing eps_l, backend, encoding, shots or noise all
// fingerprint differently. A fixed precision hashes as the tier it runs
// (qsvt::resolve_tier), so "half" and "single" share a context; adaptive
// hashes apart from every fixed precision.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "linalg/matrix.hpp"
#include "qsvt/solve.hpp"

namespace mpqls::service {

struct Fingerprint {
  std::uint64_t matrix_hash = 0;
  std::uint64_t options_hash = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

/// 64-bit FNV-1a over the matrix dimensions and row-major entries.
std::uint64_t hash_matrix(const linalg::Matrix<double>& A);

/// Hash of all preparation-relevant QsvtOptions fields.
std::uint64_t hash_options(const qsvt::QsvtOptions& options);

Fingerprint fingerprint(const linalg::Matrix<double>& A, const qsvt::QsvtOptions& options);

/// "mtx:0123abcd.../opt:89ef..." — for logs and JSON traces.
std::string to_string(const Fingerprint& fp);

/// For unordered_map keys.
struct FingerprintHasher {
  std::size_t operator()(const Fingerprint& fp) const {
    return static_cast<std::size_t>(fp.matrix_hash ^ (fp.options_hash * 0x9E3779B97F4A7C15ull));
  }
};

}  // namespace mpqls::service
