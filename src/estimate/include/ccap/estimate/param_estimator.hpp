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
/// default. It fits at most the first 2048 sent symbols; each
/// golden-section search stops at tolerance 2e-3, and the descent after
/// two coordinate sweeps. Against a converged fit (tolerance 1e-5, sweeps
/// repeated until the three parameters move by less than 3e-5 in total)
/// on 200 seeded binary trace pairs at (0.10, 0.05, 0.02), that stopping
/// rule costs about 0.0006 of mean max-abs error, for a 6-8x cheaper fit
/// (EXPERIMENTS, "A converged MLE at equal data").
[[nodiscard]] ParamEstimate estimate_params_mle(std::span<const std::uint32_t> sent,
                                                std::span<const std::uint32_t> received,
                                                unsigned bits_per_symbol,
                                                const EstimatorOptions& options = {});

}  // namespace ccap::estimate
