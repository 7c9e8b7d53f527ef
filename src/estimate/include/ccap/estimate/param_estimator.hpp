// Estimating (P_d, P_i, P_s) from sent/received traces.
//
// The paper's Section 4.3 recipe says: "for a given covert channel, one
// could first use traditional methods to estimate the physical capacity C.
// The probability of deletion P_d should then be estimated." This module is
// that estimation step: traces are aligned (blockwise, to stay near-linear)
// and the edit operations are converted to per-channel-use rates. Deletion
// and transmission events both consume a channel use; so do insertions —
// the rates are computed over uses = #sent + #insertions.
//
// A blocked bootstrap over alignment blocks gives confidence intervals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "ccap/core/channel_params.hpp"
#include "ccap/estimate/alignment.hpp"

namespace ccap::estimate {

struct RateEstimate {
    double value = 0.0;
    double ci_low = 0.0;   ///< 95% bootstrap CI
    double ci_high = 0.0;
};

struct ParamEstimate {
    RateEstimate p_d;
    RateEstimate p_i;
    RateEstimate p_s;  ///< substitution rate given transmission
    std::size_t channel_uses = 0;
    std::size_t blocks = 0;

    /// Point-estimate parameter set for the capacity formulas.
    [[nodiscard]] core::DiChannelParams params(unsigned bits_per_symbol) const {
        return {p_d.value, p_i.value, p_s.value, bits_per_symbol};
    }
};

struct EstimatorOptions {
    std::size_t block_len = 512;       ///< sent symbols per alignment block
    std::size_t bootstrap_rounds = 200;
    std::uint64_t bootstrap_seed = 99;
};

/// Estimate channel parameters from one sent/received trace pair.
/// Blockwise alignment resynchronizes greedily: each block of sent symbols
/// is aligned against a received window sized by the running drift.
[[nodiscard]] ParamEstimate estimate_params(std::span<const std::uint32_t> sent,
                                            std::span<const std::uint32_t> received,
                                            const EstimatorOptions& options = {});

/// Classify an alignment directly into per-use event rates (single block).
[[nodiscard]] ParamEstimate rates_from_alignment(const Alignment& alignment);

/// The received span an end-free alignment of `n` sent symbols searches
/// when `avail` received symbols remain: n plus a drift slack of
/// n / 2 + 32, clipped to `avail`. Generous but bounded; shared by every
/// blockwise walk over a trace pair (estimate_params, windowed_rates,
/// TraceChunkSource) so they all cut the same windows.
[[nodiscard]] constexpr std::size_t drift_window(std::size_t n, std::size_t avail) noexcept {
    return std::min(n + n / 2 + 32, avail);
}

/// Single-window end-free estimate: align all of `sent` against the best
/// *prefix* of `received` (so a window inside a longer trace does not count
/// the rest of the stream as insertions) and report both the rates and how
/// many received symbols the window consumed — the cursor for the next
/// window. Used by windowed_rates (changepoint.hpp).
struct WindowEstimate {
    ParamEstimate estimate;
    std::size_t received_consumed = 0;
};
[[nodiscard]] WindowEstimate estimate_window(std::span<const std::uint32_t> sent,
                                             std::span<const std::uint32_t> received);

/// Maximum-likelihood parameter estimation over the drift HMM.
///
/// The alignment estimator above is fast but *biased*: minimum-edit-distance
/// alignment collapses nearby deletion+insertion pairs into substitutions
/// (cost 1 < 2), so P_d and P_i are under-counted and P_s over-counted when
/// both synchronization errors are present. This estimator instead
/// maximizes sum over blocks of log2 P(received | sent; P_d, P_i, P_s)
/// computed exactly by the drift lattice, via bounded coordinate descent
/// (golden-section per parameter) seeded from the alignment estimate.
/// Each candidate scores its blocks as the lanes of batched forward
/// passes (DriftHmm::log2_likelihood_batch), bit-identical to one scalar
/// pass per block. Slower, but consistent; the analyzer uses it by
/// default.
[[nodiscard]] ParamEstimate estimate_params_mle(std::span<const std::uint32_t> sent,
                                                std::span<const std::uint32_t> received,
                                                unsigned bits_per_symbol,
                                                const EstimatorOptions& options = {});

/// Baum-Welch (EM) parameter estimation over the drift HMM: alternate the
/// exact posterior expected event counts (DriftHmm::expected_events) with
/// closed-form M-steps P_d = E[D]/E[uses], P_i = E[I]/E[uses],
/// P_s = E[S]/E[T]. Monotone in likelihood and typically converges in
/// ~10-20 iterations; agrees with estimate_params_mle at the optimum. Each
/// iteration is a scalar forward-backward pass per block, so it is the
/// slower fit. It fits at most the first 4096 sent symbols; the MLE fits
/// at most the first 2048. On 200 seeded binary trace pairs of 4096
/// symbols per (P_d, P_i, P_s) point (4-core AVX-512 Xeon), the mean
/// max-abs error EM - MLE at these defaults was -0.0030 (95% CI -0.0036
/// to -0.0024) at (0.10, 0.05, 0.02) and -0.0020 (-0.0024 to -0.0016) at
/// (0.05, 0.05, 0.01), but most of that is EM's extra data. With both
/// fits given the same symbols it was -0.0006 (-0.0011 to -0.0001) at
/// 2048 and -0.0012 (-0.0016 to -0.0007) at 4096 for the first point,
/// and +0.0002 (-0.0000 to +0.0004, not significant) at both for the
/// second. At equal data EM took 4-7x the MLE's median time per fit.
[[nodiscard]] ParamEstimate estimate_params_em(std::span<const std::uint32_t> sent,
                                               std::span<const std::uint32_t> received,
                                               unsigned bits_per_symbol,
                                               const EstimatorOptions& options = {});

}  // namespace ccap::estimate
