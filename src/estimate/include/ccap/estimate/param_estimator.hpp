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
// A blocked bootstrap over alignment blocks gives the alignment estimator's
// confidence intervals; the MLE reports observed-information intervals.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>

#include "ccap/core/channel_params.hpp"
#include "ccap/estimate/alignment.hpp"

namespace ccap::estimate {

/// A rate and its nominal 95% interval: the blocked-bootstrap percentile
/// interval from estimate_params, the observed-information (Wald) interval
/// from estimate_params_mle.
struct RateEstimate {
    double value = 0.0;
    double ci_low = 0.0;
    double ci_high = 0.0;
};

struct ParamEstimate {
    RateEstimate p_d;
    RateEstimate p_i;
    RateEstimate p_s;  ///< substitution rate given transmission
    std::size_t channel_uses = 0;
    std::size_t blocks = 0;
    // Likelihood-fit diagnostics; iterations stays 0 when no fit ran (the
    // alignment estimator, or an MLE call with nothing sent).
    int iterations = 0;      ///< Newton iterations the MLE took
    bool converged = false;  ///< the MLE met its stopping rule before the iteration cap
    /// log2 P(received | sent) at the fitted parameters, summed over the fitted blocks.
    double log2_likelihood = -std::numeric_limits<double>::infinity();

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
/// maximizes f = sum over blocks of log2 P(received | sent; P_d, P_i, P_s),
/// computed exactly by the drift lattice, over at most the first 2048 sent
/// symbols. Each evaluation scores the blocks as the lanes of batched
/// forward passes (DriftHmm::log2_likelihood_batch), bit-identical to one
/// scalar pass per block.
///
/// The fit takes damped Newton steps in theta = ln p, seeded from the
/// alignment estimate (THEORY section 18). Each iteration evaluates a
/// 10-point stencil (the centre, +-h on each axis, one (+h, +h) point per
/// pair; h = 0.05) and solves H s = -g; a Hessian that is not negative
/// definite gets its diagonal shifted by the Gershgorin bound, a step is
/// capped at 0.7 in every theta and halved while it lowers f. The fit
/// converges once the full step would move every rate by less than 2e-3
/// (it takes that step unless it lowers f), and otherwise stops at 20
/// iterations or after 12 halvings without ascent. The intervals are
/// observed-information (Wald) intervals, p +- 1.96 sqrt(diag((-H_p ln 2)^-1))
/// with H_p = H_theta / (p_i p_j) from the last stencil, clipped at 0; at a
/// rate whose MLE sits at 0 they under-cover. The fit's iterations,
/// convergence and final log2-likelihood are reported in the estimate.
[[nodiscard]] ParamEstimate estimate_params_mle(std::span<const std::uint32_t> sent,
                                                std::span<const std::uint32_t> received,
                                                unsigned bits_per_symbol,
                                                const EstimatorOptions& options = {});

}  // namespace ccap::estimate
