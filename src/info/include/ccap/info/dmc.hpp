// Discrete memoryless channel (DMC) abstraction and canonical builders.
//
// A DMC is the synchronous channel model the paper contrasts against: every
// input symbol yields exactly one output symbol according to a fixed
// row-stochastic matrix W(y|x). Traditional covert-channel capacity
// estimation (Millen [5], Moskowitz [10][11]) happens in this model; the
// paper's contribution is the correction applied on top of it.
#pragma once

#include <cstddef>

#include "ccap/util/matrix.hpp"

namespace ccap::info {

class Dmc {
public:
    /// Construct from a row-stochastic matrix W(y|x); throws if not
    /// stochastic within 1e-9 (rows are renormalized if within tolerance).
    explicit Dmc(util::Matrix transition);

    /// W(y|x) at (x, y): one row per input, one column per output.
    [[nodiscard]] const util::Matrix& matrix() const noexcept { return w_; }

private:
    util::Matrix w_;
};

/// Binary symmetric channel with crossover probability p.
[[nodiscard]] Dmc make_bsc(double p);

/// Binary erasure channel with erasure probability e. Outputs: {0, 1, erasure=2}.
[[nodiscard]] Dmc make_bec(double e);

/// M-ary symmetric channel: correct with prob 1-p, each wrong symbol with
/// prob p/(M-1). This is the paper's Fig. 5 "converted channel".
[[nodiscard]] Dmc make_mary_symmetric(unsigned m, double p);

/// Z-channel: 0 -> 0 always; 1 -> 0 with probability p (1 -> 1 otherwise).
/// The classic model of covert channels whose "no-signal" symbol is reliable
/// (Moskowitz & Miller).
[[nodiscard]] Dmc make_z_channel(double p);

/// M-ary erasure channel: symbol delivered intact with prob 1-e, replaced by
/// a distinguished erasure flag (output index m) with prob e. Capacity is
/// log2(m)*(1-e) — the right-hand side of the paper's Theorem 1 with
/// m = 2^N and e = P_d.
[[nodiscard]] Dmc make_mary_erasure(unsigned m, double e);

/// Noiseless m-ary identity channel.
[[nodiscard]] Dmc make_noiseless(unsigned m);

/// Closed-form capacities for the canonical channels (bits/use); used to
/// cross-check the Blahut-Arimoto solver in tests.
[[nodiscard]] double bsc_capacity(double p);
[[nodiscard]] double bec_capacity(double e);
[[nodiscard]] double z_channel_capacity(double p);
[[nodiscard]] double mary_erasure_capacity(unsigned m, double e);

}  // namespace ccap::info
