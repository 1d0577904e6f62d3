// Exact one-ancilla block-encoding of an arbitrary real matrix via the
// unitary completion  U = [[B, sqrt(I-BB^T)], [sqrt(I-B^T B), -B^T]] with
// B = A/alpha, built from the SVD. This is the workhorse encoding for
// simulator experiments (the circuit carries U as a dense payload); the
// LCU / tridiagonal encoders provide gate-level alternatives.
#pragma once

#include "blockenc/block_encoding.hpp"
#include "linalg/jacobi_svd.hpp"
#include "linalg/matrix.hpp"

namespace mpqls::blockenc {

/// Block-encode A (square, 2^n x 2^n). If alpha <= 0 the tight value
/// ||A||_2 (plus a hair of headroom) is used. Requires alpha >= ||A||_2.
BlockEncoding dense_embedding(const linalg::Matrix<double>& A, double alpha = 0.0);

/// As above, from a given SVD A = U diag(sigma) V^T (e.g. the factors of a
/// matrix already decomposed, swapped for its transpose), so no second
/// SVD runs. Equal bit for bit to the one-argument form when `svd` is
/// `jacobi_svd(A)`.
BlockEncoding dense_embedding(const linalg::Matrix<double>& A, const linalg::Svd& svd,
                              double alpha = 0.0);

}  // namespace mpqls::blockenc
