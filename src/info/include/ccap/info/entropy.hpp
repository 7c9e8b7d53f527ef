// Elementary information measures (bits, base-2 throughout the library).
//
// These are the primitives every capacity expression in the paper is built
// from: the binary entropy H(p) of eq (5), the M-ary symmetric penalty of
// eq (3), and the mutual-information machinery behind Blahut-Arimoto.
#pragma once

#include <span>

#include "ccap/util/matrix.hpp"

namespace ccap::info {

/// 0*log2(0) := 0 convention, used everywhere below.
[[nodiscard]] double xlog2x(double x) noexcept;

/// Binary entropy H(p) = -p log2 p - (1-p) log2(1-p). Paper eq (5).
/// p outside [0,1] throws std::domain_error.
[[nodiscard]] double binary_entropy(double p);

/// Mutual information I(X;Y) in bits from a joint distribution
/// (rows = x, cols = y). The joint must sum to 1 within 1e-6.
[[nodiscard]] double mutual_information(const util::Matrix& joint);

/// Mutual information from an input distribution p(x) and a row-stochastic
/// channel matrix W(y|x).
[[nodiscard]] double mutual_information(std::span<const double> input, const util::Matrix& channel);

/// Entropy penalty of an M-ary symmetric channel with total error
/// probability p (error spread uniformly over the other M-1 symbols):
///   H_M(p) = H(p) + p * log2(M-1).
/// This is exactly the "alpha*Pi*log2(2^N - 1) + H(alpha*Pi)" term in the
/// paper's eq (3), with M = 2^N.
[[nodiscard]] double mary_symmetric_entropy_penalty(double p, unsigned m);

/// Capacity of the M-ary symmetric channel: log2(M) - H_M(p).
[[nodiscard]] double mary_symmetric_capacity(double p, unsigned m);

}  // namespace ccap::info
