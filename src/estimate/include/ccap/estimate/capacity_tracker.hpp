// Online capacity tracker: streaming estimation that survives
// non-stationary faults.
//
// The offline pipeline (analyzer.hpp) assumes the channel's parameters hold
// for the whole trace; under the fault profiles of core/fault_injection.hpp
// that assumption fails and a single batch estimate averages incompatible
// regimes into a number that is wrong for every one of them. The tracker
// instead ingests the observation stream one fixed-size window at a time
// and maintains:
//
//   * a per-window parameter estimate (estimate_window, end-free alignment)
//     mapped through a memoized capacity grid (info/capacity_cache.hpp) —
//     the same adaptive Monte-Carlo machinery as the offline path, so a
//     stationary stream reproduces the batch estimate bit for bit;
//   * an exponentially smoothed capacity estimate with propagated
//     uncertainty: var <- (1-a)^2 var + a^2 sem^2, reported as a 1.96-sigma
//     bound plus the grid quantization margin;
//   * a trendline drift detector (OLS slope of recent window P_d values,
//     flagged when the slope exceeds a threshold for `drift_sustain`
//     consecutive windows — the WebRTC trendline idiom);
//   * a change-point reset: when the window P_d jumps more than
//     `resync_jump` away from the smoothed P_d, the smoothed state is
//     stale by certificate and is discarded (status `resync`), re-pinning
//     the estimate to the current window;
//   * an AIMD served-rate controller: additive increase toward
//     headroom * smoothed capacity while tracking, multiplicative back-off
//     (beta) on drift, resync and degraded windows.
//
// Robustness contract: no NaN ever escapes a TrackerUpdate. Windows that
// cannot produce a usable estimate (empty, non-finite rates, parameters
// outside the tracked grid — e.g. an all-deleted window estimating
// P_d = 1) degrade *explicitly*: status `degraded`, the last smoothed value
// held and flagged stale via `stale_windows`, served rate backed off.
//
// Determinism contract: every TrackerUpdate is a pure function of (config,
// ingested chunks). The cache's node purity makes prefetch warm-up
// (`ensure` over predicted grid nodes) a no-op on values, so outputs are
// bit-identical at any `threads` setting; checkpoints serialize state as
// hex-floats so a resumed tracker continues the uninterrupted run bit for
// bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "ccap/core/stream_source.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/info/capacity_cache.hpp"
#include "ccap/util/checkpoint_io.hpp"

namespace ccap::estimate {

enum class TrackerStatus : std::uint8_t {
    warmup,    ///< inside the first warmup_windows windows
    tracking,  ///< steady state: smoothed estimate is live
    drifting,  ///< sustained P_d trend detected; back-off engaged
    resync,    ///< change-point reset: smoothed state discarded this window
    degraded,  ///< window unusable; holding stale state, backing off
};

/// "warmup" / "tracking" / "drifting" / "resync" / "degraded".
[[nodiscard]] const char* tracker_status_name(TrackerStatus status) noexcept;

struct TrackerConfig {
    /// Sent symbols per window. The tracker accepts whatever chunk framing
    /// the source emits; this value drives TraceChunkSource carving and is
    /// part of the config fingerprint (a checkpoint from another framing
    /// must not resume).
    std::size_t window_len = 2000;
    double smoothing = 0.3;          ///< EWMA coefficient a in (0, 1]
    std::size_t trend_window = 8;    ///< windows in the OLS trendline (>= 3)
    double drift_slope = 0.004;      ///< |dP_d/dwindow| flagging drift
    std::size_t drift_sustain = 3;   ///< consecutive flags before `drifting`
    double resync_jump = 0.05;       ///< |window P_d - smoothed P_d| reset threshold
    std::size_t warmup_windows = 2;
    /// The grid spans (P_d, P_i) only; substitution rate is pinned at
    /// cache.base.p_s. A window whose estimated p_s strays further than
    /// this from the base is not described by any node (stuck-at faults, a
    /// received stream that is substitution noise) and degrades explicitly
    /// instead of reporting a wrong node's capacity.
    double ps_tolerance = 0.1;
    double aimd_increase = 0.02;     ///< additive step, bits per use per window
    double aimd_beta = 0.85;         ///< multiplicative back-off factor in (0, 1)
    double headroom = 0.95;          ///< served target fraction of smoothed capacity
    /// Grid nodes to warm ahead along the drift direction after each
    /// window (cache.ensure over predicted keys). Purely a latency
    /// optimization: node values are pure, so outputs are unchanged.
    std::size_t prefetch = 0;
    /// Worker threads for prefetch warm-up only. Never affects outputs.
    unsigned threads = 1;
    /// The capacity grid every window estimate is evaluated on. Shares the
    /// offline cache's determinism contract: node values are pure functions
    /// of (config, key), which is what makes a stationary stream reproduce
    /// the batch estimate exactly.
    info::CapacityCache::Config cache;

    /// Throws std::domain_error / std::invalid_argument when malformed.
    void validate() const;

    /// Hash of every output-affecting field (perf knobs — threads,
    /// prefetch, cache sharding/enabled — excluded). Stamped into
    /// checkpoints; resume refuses a fingerprint mismatch.
    [[nodiscard]] std::uint64_t fingerprint() const noexcept;
};

/// One window's tracker output. Every field is finite by contract — the
/// pathological-input tests feed NaN-inducing garbage and assert it.
/// Defaulted equality backs the bit-identity tests (thread invariance,
/// checkpoint resume, null-profile-vs-batch).
struct TrackerUpdate {
    std::uint64_t window = 0;
    TrackerStatus status = TrackerStatus::warmup;
    double p_d = 0.0;  ///< window parameter estimates (0 when unavailable)
    double p_i = 0.0;
    double p_s = 0.0;
    double window_capacity = 0.0;  ///< this window's node estimate, bits/use
    double window_sem = 0.0;
    double capacity = 0.0;  ///< smoothed estimate (held stale when degraded)
    double sem = 0.0;       ///< smoothed SEM, sqrt of the propagated variance
    double bound = 0.0;     ///< 1.96 * smoothed SEM + grid quantization margin
    double trend_slope = 0.0;  ///< OLS P_d slope per window over the trendline
    bool drift = false;        ///< trendline sustained past drift_sustain
    double served_rate = 0.0;  ///< AIMD-controlled rate offered to the sender
    std::uint64_t resyncs = 0;        ///< cumulative change-point resets
    std::uint64_t stale_windows = 0;  ///< consecutive degraded windows held
    std::size_t mc_blocks = 0;  ///< MC blocks backing window_capacity
    bool converged = false;     ///< node met its SEM target (false when degraded)

    bool operator==(const TrackerUpdate&) const = default;
};

class CapacityTracker {
public:
    explicit CapacityTracker(TrackerConfig cfg);

    /// The backing grid cache (benches evaluate ground truth through it so
    /// tracker and truth share one quantization).
    [[nodiscard]] info::CapacityCache& cache() noexcept { return cache_; }

    /// Ingest one window and return its update (also retained as last()).
    TrackerUpdate ingest(const core::StreamChunk& chunk);

    [[nodiscard]] std::uint64_t windows() const noexcept { return windows_; }
    [[nodiscard]] const TrackerUpdate& last() const noexcept { return last_; }

    /// Serialize the full mutable state (hex-float doubles, config
    /// fingerprint). The grid cache is deliberately not serialized: node
    /// values are pure functions of (config, key) and rebuild identically.
    [[nodiscard]] util::Checkpoint checkpoint() const;

    /// Rebuild a tracker from a checkpoint. Throws util::CheckpointIoError
    /// (malformed) when the checkpoint's fingerprint does not match `cfg`
    /// or a state field is missing/mistyped. The resumed tracker's
    /// subsequent updates are bit-identical to the uninterrupted run's.
    [[nodiscard]] static CapacityTracker resume(TrackerConfig cfg,
                                                const util::Checkpoint& state);

private:
    TrackerUpdate degrade(const core::StreamChunk& chunk, const ParamEstimate* est);
    void push_trend(double pd);
    [[nodiscard]] double slope() const noexcept;
    [[nodiscard]] double bound() const noexcept;
    void prefetch_ahead(info::CapacityKey current, double pd, double pi, double slp);

    TrackerConfig cfg_;
    info::CapacityCache cache_;
    double quant_margin_ = 0.0;

    std::uint64_t windows_ = 0;
    bool have_smoothed_ = false;
    double ewma_cap_ = 0.0;
    double ewma_var_ = 0.0;
    double ewma_pd_ = 0.0;
    double ewma_pi_ = 0.0;
    std::vector<double> trend_;  ///< last <= trend_window window P_d values
    std::uint64_t drift_streak_ = 0;
    std::uint64_t resyncs_ = 0;
    std::uint64_t stale_streak_ = 0;
    double served_ = 0.0;
    TrackerUpdate last_;
};

/// Trace-file chunk source: carves a complete sent/received trace pair into
/// StreamChunks of window_len sent symbols, walking the received stream
/// with the same end-free alignment cursor as windowed_rates
/// (changepoint.hpp). The final window absorbs all remaining received
/// symbols, so trailing insertions are not dropped.
class TraceChunkSource final : public core::ChunkSource {
public:
    /// Throws std::invalid_argument when window_len == 0.
    TraceChunkSource(std::vector<std::uint32_t> sent,
                     std::vector<std::uint32_t> received, std::size_t window_len);

    [[nodiscard]] std::optional<core::StreamChunk> next() override;

private:
    std::vector<std::uint32_t> sent_;
    std::vector<std::uint32_t> received_;
    std::size_t window_len_;
    std::size_t sent_pos_ = 0;
    std::size_t recv_pos_ = 0;
    std::uint64_t index_ = 0;
};

}  // namespace ccap::estimate
