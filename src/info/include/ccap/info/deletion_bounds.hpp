// Capacity bounds for channels with synchronization errors (no feedback).
//
// The paper's Section 4.1 observes that the exact capacity of a
// deletion-insertion channel is unknown (Dobrushin 1967 proved the coding
// theorem; Vvedenskaya & Dobrushin 1968 and Dolgopolov 1990 computed
// numerical bounds). This module provides:
//
//   * the trivial erasure upper bound         C <= N (1 - P_d)  (Theorem 1),
//   * Gallager's iid lower bound for the binary deletion channel
//                                             C >= 1 - H(p_d),
//   * the Kanoria-Montanari small-p asymptotic expansion (informative only),
//   * a Monte-Carlo *achievable-rate* estimator for the general
//     deletion-insertion-substitution channel: for blocks of iid uniform
//     inputs, I(X;Y)/n is computed exactly per sampled block via the drift
//     lattice (log2 P(Y|X) by a point-prior forward pass, log2 P(Y) by a
//     uniform-prior forward pass), then averaged. This is the modern
//     equivalent of the Vvedenskaya-Dobrushin computation the paper cites.
#pragma once

#include <cstddef>

#include "ccap/info/drift_hmm.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/stats.hpp"

namespace ccap::info {

/// Erasure-channel upper bound on any deletion(-insertion) channel with
/// symbol alphabet 2^bits_per_symbol: bits_per_symbol * (1 - p_d).
[[nodiscard]] double erasure_upper_bound(double p_d, unsigned bits_per_symbol = 1);

/// Gallager's lower bound for the binary deletion channel:
/// max(0, 1 - H(p)) for p <= 1/2 (0 beyond, where the argument breaks).
[[nodiscard]] double gallager_deletion_lower_bound(double p_d);

/// Mitzenmacher & Drinea's universal lower bound C >= (1 - p)/9, valid for
/// every deletion rate (the best simple bound in the p > 1/2 regime).
[[nodiscard]] double mitzenmacher_drinea_lower_bound(double p_d);

/// Kanoria-Montanari small-deletion-rate expansion for the binary deletion
/// channel: C ~ 1 + p*log2(p) - A*p, A ~= 1.15416377. Only meaningful for
/// small p (<~ 0.1); clamped at 0.
[[nodiscard]] double small_p_deletion_expansion(double p_d);

/// Sample a transmission through the Definition-1 generative channel
/// (geometric insertion runs, deletions, substitutions, trailing inserts).
/// Matches DriftHmm's model exactly (without truncation).
[[nodiscard]] std::vector<std::uint8_t> simulate_drift_channel(
    std::span<const std::uint8_t> transmitted, const DriftParams& params, util::Rng& rng);

struct MiEstimate {
    double rate = 0.0;        ///< mean achievable rate, bits per input symbol
    double sem = 0.0;         ///< standard error of the mean
    std::size_t blocks = 0;   ///< blocks actually spent (averaged)
    std::size_t block_len = 0;
    /// Adaptive mode (McOptions::target_sem > 0): the SEM target was met
    /// before the block cap. Always true in fixed mode, where no target
    /// exists.
    bool converged = true;
    /// Blocks scored 0 bits because an evidence was -infinity: the block's
    /// received length left the lattice's drift window (max_drift), so the
    /// block has no information estimate. Counted, not corrected: a nonzero
    /// count biases `rate` (and `sem`) low.
    std::size_t truncated = 0;
};

/// Knobs shared by the Monte-Carlo mutual-information estimators.
///
/// Parallelism contract: the estimators consume exactly one draw from the
/// caller's Rng to form a root seed, then give every block its own
/// substream (util::substream_seed) and fold the per-block samples in
/// block order. The returned MiEstimate is therefore bit-identical for
/// every `threads` value — threads only changes wall-clock time.
struct McOptions {
    std::size_t block_len = 64;   ///< symbols per sampled block
    std::size_t num_blocks = 16;  ///< independent blocks to average
    unsigned threads = 0;         ///< worker cap; 0 = hardware concurrency, 1 = serial
    /// Adaptive precision. 0 (default) = fixed mode: exactly num_blocks
    /// blocks run, bit-identical to the historical behavior. > 0: blocks
    /// run in rounds of num_blocks (mc_round_blocks), and after each round
    /// the estimator stops once the fold-order SEM of every sample so far
    /// is <= target_sem, or once mc_block_cap() blocks were spent. The SEM
    /// is only inspected at round boundaries of the deterministic
    /// compensated fold (util::CompensatedStats), so the stopping time —
    /// and hence the whole MiEstimate — is a pure function of (root seed,
    /// options, params): bit-identical at every thread count, exactly like
    /// the fixed mode.
    double target_sem = 0.0;
    /// Adaptive-mode total block cap; 0 picks 64 rounds' worth
    /// (64 * mc_round_blocks). Ignored in fixed mode.
    std::size_t max_blocks = 0;
    /// Common-random-numbers (CRN) point tiling for
    /// iid_mutual_information_rate_points. 0 (default) = independent
    /// streams: every point draws its own blocks from its own seed — the
    /// historical behavior, bit for bit. kMcPointTileAuto picks a
    /// SIMD-width-multiple tile automatically; N > 0 groups the point span
    /// into tiles of N points that share one variate tape per block: each
    /// block's transmitted symbols and channel-event uniforms are drawn
    /// once from the per-block substream and realized under every point's
    /// parameters, and the whole tile rides one per-lane-parameter lattice
    /// sweep (batch_lattice.hpp). Sampling cost is paid once per block
    /// instead of once per (point, block), SIMD lanes stay full even at
    /// small per-point batches, and adjacent points' estimates become
    /// positively correlated — shrinking the variance of their differences
    /// (PointSweepReport; docs/THEORY.md section 15). The shared tape is
    /// rooted at the FIRST point's seed (see crn_root); every point keeps
    /// its exact marginal block law, and estimates are bit-identical at
    /// every thread count and point_tile width. Requires all points to
    /// share alphabet, max_drift and max_insert_run. Ignored by the
    /// single-point estimators.
    std::size_t point_tile = 0;
    /// Explicit root for the CRN variate tapes. 0 (default) derives the
    /// root from the first point's seed, which ties every sample to the
    /// evaluated span: fine for one-shot sweeps, wrong for memoization,
    /// where the same grid node may be warmed in different batches.
    /// A nonzero root makes each (block, point) sample a pure function of
    /// (crn_root, block index, point params) — independent of which other
    /// points share the call — so CapacityCache derives one from its
    /// config seed and gets batch-composition-independent node values
    /// (bulk ensure(), single-node at() and the naive per-flow path all
    /// agree bit for bit). Ignored when point_tile = 0.
    std::uint64_t crn_root = 0;
};

/// McOptions::point_tile sentinel: choose the CRN tile width automatically
/// (a small multiple of the active SIMD vector width).
inline constexpr std::size_t kMcPointTileAuto = static_cast<std::size_t>(-1);

/// The CRN tile width iid_mutual_information_rate_points actually uses for
/// a span of `num_points` points: 0 when opts.point_tile is 0 (independent
/// streams); otherwise opts.point_tile — auto resolves to a vector-width
/// multiple — clamped to num_points. Tiny workloads stay sub-vector-width
/// rather than padding up: the masked-tail kernels (lattice_simd.hpp) make
/// small sweeps pay only for live lanes.
[[nodiscard]] std::size_t resolved_point_tile(const McOptions& opts, std::size_t num_points);

/// Blocks per adaptive round: num_blocks, but at least 2 so a SEM exists
/// after the pilot round.
[[nodiscard]] std::size_t mc_round_blocks(const McOptions& opts);

/// Total blocks the estimator may spend: num_blocks in fixed mode
/// (target_sem == 0); max_blocks (0 -> 64 rounds) in adaptive mode, never
/// below 2.
[[nodiscard]] std::size_t mc_block_cap(const McOptions& opts);

/// The lattice lanes of one Monte-Carlo tile: ISA-aware — a multiple of the
/// active SIMD vector width (util::active_simd_path()) sized so the hot
/// rows of a lockstep step stay L1-resident — then clamped to
/// mc_round_blocks(opts) (no clamp when opts.num_blocks is 0). Never a
/// function of opts.threads (the thread-invariance contract above).
[[nodiscard]] std::size_t resolved_mc_batch(const McOptions& opts, const DriftParams& params);

/// Blocks per sweep chunk of a CRN tile of `tile_points` points: the
/// resolved_mc_batch lane budget without the round clamp, divided among the
/// tile's points, at least 1, and at most the blocks of one round
/// (min(mc_round_blocks, mc_block_cap)). A chunk sweeps up to that many
/// blocks x tile_points lanes.
[[nodiscard]] std::size_t crn_sweep_blocks(const McOptions& opts, const DriftParams& params,
                                           std::size_t tile_points);

/// Monte-Carlo achievable rate of the deletion-insertion(-substitution)
/// channel with iid uniform inputs: E[log2 P(Y|X) - log2 P(Y)] / block_len.
/// This estimates an achievable rate, a lower bound on the true
/// (no-feedback) capacity, up to O(1/block_len) edge effects and the
/// lattice truncations (whose net sign is unproven, drift_hmm.hpp).
/// Deterministic given `rng` state and invariant in opts.threads.
[[nodiscard]] MiEstimate iid_mutual_information_rate(const DriftParams& params,
                                                     const McOptions& opts, util::Rng& rng);

/// One (parameters, seed) point of a batched capacity evaluation. The seed
/// is part of the point — not drawn from a shared generator — so a point's
/// estimate is a pure function of the point alone: independent of its
/// position in the span, of which other points ride along, and of the
/// thread count. The contention engine exploits this to make cached and
/// uncached evaluation bit-identical (capacity_cache.hpp).
struct CapacityPoint {
    DriftParams params;
    std::uint64_t seed = 0;
};

/// Optional diagnostics of a point sweep.
struct PointSweepReport {
    /// Resolved CRN tile width (resolved_point_tile; 0 = independent).
    std::size_t point_tile = 0;
    /// adjacent_diff_sem[i] = standard error of (estimate_i - estimate_{i+1})
    /// for adjacent points of the span (empty when fewer than 2 points).
    /// Under CRN coupling, points of one tile share their blocks, so the
    /// difference SEM is measured over the paired per-block samples —
    /// positively correlated samples push it far below the independent
    /// combination sqrt(sem_i^2 + sem_j^2), which is what cross-tile pairs
    /// (and every pair in independent mode) report.
    std::vector<double> adjacent_diff_sem;
};

/// Evaluate iid_mutual_information_rate at many parameter points.
/// McOptions::point_tile selects independent streams (0, below) or
/// common-random-numbers point tiles (see McOptions); `report`, when
/// non-null, receives the sweep diagnostics.
///
/// Independent streams: each point is the standalone estimator on its own
/// seed, run serially, and the point axis is parallelized over
/// opts.threads. Every Monte-Carlo estimate thus follows one stopping rule
/// (McOptions::target_sem), and out[i] is bit-identical, spent count and
/// converged flag included, to
///   Rng r(points[i].seed);
///   iid_mutual_information_rate(points[i].params, {opts, threads = 1}, r);
/// in fixed and adaptive mode, at every thread count.
[[nodiscard]] std::vector<MiEstimate> iid_mutual_information_rate_points(
    std::span<const CapacityPoint> points, const McOptions& opts,
    PointSweepReport* report = nullptr);

/// Sample a sequence from a first-order Markov source.
[[nodiscard]] std::vector<std::uint8_t> simulate_markov_source(const MarkovSource& source,
                                                               unsigned alphabet,
                                                               std::size_t length,
                                                               util::Rng& rng);

/// Monte-Carlo achievable rate with a first-order Markov input process —
/// the Davey-MacKay observation that run-length-biased inputs beat iid on
/// deletion channels, quantified. The marginal log2 P(Y) runs over the
/// joint (drift, previous-symbol) lattice. With an iid uniform source this
/// reduces (statistically) to iid_mutual_information_rate. Same seeding
/// and threads contract as the iid estimator (see McOptions).
[[nodiscard]] MiEstimate markov_mutual_information_rate(const DriftParams& params,
                                                        const MarkovSource& source,
                                                        const McOptions& opts, util::Rng& rng);

}  // namespace ccap::info
