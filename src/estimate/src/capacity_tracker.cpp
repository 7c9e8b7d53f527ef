#include "ccap/estimate/capacity_tracker.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ccap/util/rng.hpp"

namespace ccap::estimate {

namespace {

constexpr double kZ = 1.96;  ///< confidence radius, matches the cache's

[[nodiscard]] std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
    std::uint64_t state = h ^ (v + 0x9e3779b97f4a7c15ULL);
    return util::splitmix64(state);
}

[[nodiscard]] std::uint64_t mix(std::uint64_t h, double v) noexcept {
    return mix(h, std::bit_cast<std::uint64_t>(v));
}

// last() travels in the checkpoint under "last_*" keys: a resume with no
// window left to ingest must still report the saved update.
void set_update(util::Checkpoint& cp, const TrackerUpdate& u) {
    cp.set_u64("last_window", u.window);
    cp.set_u64("last_status", static_cast<std::uint64_t>(u.status));
    cp.set_double("last_p_d", u.p_d);
    cp.set_double("last_p_i", u.p_i);
    cp.set_double("last_p_s", u.p_s);
    cp.set_double("last_window_capacity", u.window_capacity);
    cp.set_double("last_window_sem", u.window_sem);
    cp.set_double("last_capacity", u.capacity);
    cp.set_double("last_sem", u.sem);
    cp.set_double("last_bound", u.bound);
    cp.set_double("last_trend_slope", u.trend_slope);
    cp.set_u64("last_drift", u.drift ? 1 : 0);
    cp.set_double("last_served_rate", u.served_rate);
    cp.set_u64("last_resyncs", u.resyncs);
    cp.set_u64("last_stale_windows", u.stale_windows);
    cp.set_u64("last_mc_blocks", u.mc_blocks);
    cp.set_u64("last_converged", u.converged ? 1 : 0);
}

[[nodiscard]] TrackerUpdate get_update(const util::Checkpoint& cp) {
    TrackerUpdate u;
    u.window = cp.u64("last_window");
    const std::uint64_t status = cp.u64("last_status");
    if (status > static_cast<std::uint64_t>(TrackerStatus::degraded))
        throw util::CheckpointIoError(util::CheckpointError::malformed,
                                      "checkpoint last_status is not a tracker status");
    u.status = static_cast<TrackerStatus>(status);
    u.p_d = cp.number("last_p_d");
    u.p_i = cp.number("last_p_i");
    u.p_s = cp.number("last_p_s");
    u.window_capacity = cp.number("last_window_capacity");
    u.window_sem = cp.number("last_window_sem");
    u.capacity = cp.number("last_capacity");
    u.sem = cp.number("last_sem");
    u.bound = cp.number("last_bound");
    u.trend_slope = cp.number("last_trend_slope");
    u.drift = cp.u64("last_drift") != 0;
    u.served_rate = cp.number("last_served_rate");
    u.resyncs = cp.u64("last_resyncs");
    u.stale_windows = cp.u64("last_stale_windows");
    u.mc_blocks = cp.u64("last_mc_blocks");
    u.converged = cp.u64("last_converged") != 0;
    return u;
}

}  // namespace

const char* tracker_status_name(TrackerStatus status) noexcept {
    switch (status) {
        case TrackerStatus::warmup: return "warmup";
        case TrackerStatus::tracking: return "tracking";
        case TrackerStatus::drifting: return "drifting";
        case TrackerStatus::resync: return "resync";
        case TrackerStatus::degraded: return "degraded";
    }
    return "unknown";
}

void TrackerConfig::validate() const {
    if (window_len == 0)
        throw std::invalid_argument("TrackerConfig: window_len must be > 0");
    if (!std::isfinite(smoothing) || smoothing <= 0.0 || smoothing > 1.0)
        throw std::domain_error("TrackerConfig: smoothing must be finite in (0,1]");
    if (trend_window < 3)
        throw std::invalid_argument("TrackerConfig: trend_window must be >= 3");
    if (!std::isfinite(drift_slope) || drift_slope <= 0.0)
        throw std::domain_error("TrackerConfig: drift_slope must be finite and > 0");
    if (drift_sustain == 0)
        throw std::invalid_argument("TrackerConfig: drift_sustain must be >= 1");
    if (!std::isfinite(resync_jump) || resync_jump <= 0.0)
        throw std::domain_error("TrackerConfig: resync_jump must be finite and > 0");
    if (!std::isfinite(ps_tolerance) || ps_tolerance <= 0.0)
        throw std::domain_error("TrackerConfig: ps_tolerance must be finite and > 0");
    if (!std::isfinite(aimd_increase) || aimd_increase <= 0.0)
        throw std::domain_error("TrackerConfig: aimd_increase must be finite and > 0");
    if (!std::isfinite(aimd_beta) || aimd_beta <= 0.0 || aimd_beta >= 1.0)
        throw std::domain_error("TrackerConfig: aimd_beta must be finite in (0,1)");
    if (!std::isfinite(headroom) || headroom <= 0.0 || headroom > 1.0)
        throw std::domain_error("TrackerConfig: headroom must be finite in (0,1]");
}

std::uint64_t TrackerConfig::fingerprint() const noexcept {
    // Output-affecting fields only: perf knobs (threads, prefetch, cache
    // sharding/capacity/enabled) are value-invariant by the cache's purity
    // contract and deliberately left out, so a checkpoint taken at one
    // thread count resumes at another.
    std::uint64_t h = 0x7eacc0de5eed01ULL;
    h = mix(h, static_cast<std::uint64_t>(window_len));
    h = mix(h, smoothing);
    h = mix(h, static_cast<std::uint64_t>(trend_window));
    h = mix(h, drift_slope);
    h = mix(h, static_cast<std::uint64_t>(drift_sustain));
    h = mix(h, resync_jump);
    h = mix(h, static_cast<std::uint64_t>(warmup_windows));
    h = mix(h, ps_tolerance);
    h = mix(h, aimd_increase);
    h = mix(h, aimd_beta);
    h = mix(h, headroom);
    h = mix(h, cache.grid.pd_step);
    h = mix(h, cache.grid.pi_step);
    h = mix(h, cache.grid.pd_max);
    h = mix(h, cache.grid.pi_max);
    h = mix(h, cache.base.p_s);
    h = mix(h, static_cast<std::uint64_t>(cache.base.alphabet));
    h = mix(h, static_cast<std::uint64_t>(static_cast<std::uint32_t>(cache.base.max_drift)));
    h = mix(h, static_cast<std::uint64_t>(
                   static_cast<std::uint32_t>(cache.base.max_insert_run)));
    h = mix(h, static_cast<std::uint64_t>(cache.mc.block_len));
    h = mix(h, static_cast<std::uint64_t>(cache.mc.num_blocks));
    h = mix(h, cache.mc.target_sem);
    h = mix(h, static_cast<std::uint64_t>(cache.mc.max_blocks));
    h = mix(h, static_cast<std::uint64_t>(cache.mc.point_tile));
    h = mix(h, cache.mc.crn_root);
    h = mix(h, cache.target_interp_err);
    h = mix(h, cache.seed);
    return h;
}

CapacityTracker::CapacityTracker(TrackerConfig cfg)
    : cfg_((cfg.validate(), std::move(cfg))), cache_(cfg_.cache) {
    // Half-step quantization margin: capacity moves at most ~bits per unit
    // probability, and snapping to the nearest node perturbs (P_d, P_i) by
    // at most half a step each.
    const double bits = std::log2(static_cast<double>(cfg_.cache.base.alphabet));
    quant_margin_ =
        0.5 * bits * (cfg_.cache.grid.pd_step + cfg_.cache.grid.pi_step);
}

void CapacityTracker::push_trend(double pd) {
    trend_.push_back(pd);
    if (trend_.size() > cfg_.trend_window) trend_.erase(trend_.begin());
}

double CapacityTracker::slope() const noexcept {
    // OLS slope of window P_d against window index — the trendline
    // detector. Fixed left-to-right accumulation order: deterministic.
    const std::size_t n = trend_.size();
    if (n < 3) return 0.0;
    const double mean_x = static_cast<double>(n - 1) / 2.0;
    double mean_y = 0.0;
    for (const double y : trend_) mean_y += y;
    mean_y /= static_cast<double>(n);
    double num = 0.0, den = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dx = static_cast<double>(i) - mean_x;
        num += dx * (trend_[i] - mean_y);
        den += dx * dx;
    }
    return den > 0.0 ? num / den : 0.0;
}

double CapacityTracker::bound() const noexcept {
    return kZ * std::sqrt(ewma_var_) + quant_margin_;
}

void CapacityTracker::prefetch_ahead(info::CapacityKey current, double pd,
                                     double pi, double slp) {
    if (cfg_.prefetch == 0 || slp == 0.0) return;
    std::vector<info::CapacityKey> keys;
    for (std::size_t step = 1; step <= cfg_.prefetch; ++step) {
        const double pd_pred = pd + slp * static_cast<double>(step);
        const info::CapacityKey key = cache_.quantize(pd_pred, pi);
        if (key == current) continue;
        if (std::find(keys.begin(), keys.end(), key) == keys.end())
            keys.push_back(key);
    }
    // Warm-up only: node values are pure functions of (config, key), so
    // whether a later at() hits this prefetch or recomputes is invisible
    // in the output stream — which is why `threads` cannot break the
    // bit-identity contract.
    if (!keys.empty()) cache_.ensure(keys, cfg_.threads);
}

TrackerUpdate CapacityTracker::degrade(const core::StreamChunk& chunk,
                                       const ParamEstimate* est) {
    TrackerUpdate u;
    u.window = chunk.index;
    u.status = TrackerStatus::degraded;
    if (est != nullptr) {
        // Report the (finite) raw estimates that triggered the degrade so
        // the operator can see *why* — e.g. P_d ~ 1 on an all-deleted
        // window — without them contaminating the smoothed state.
        const auto finite_or_zero = [](double v) {
            return std::isfinite(v) ? v : 0.0;
        };
        u.p_d = finite_or_zero(est->p_d.value);
        u.p_i = finite_or_zero(est->p_i.value);
        u.p_s = finite_or_zero(est->p_s.value);
    }
    ++stale_streak_;
    u.stale_windows = stale_streak_;
    if (have_smoothed_) {
        u.capacity = ewma_cap_;
        u.sem = std::sqrt(ewma_var_);
        u.bound = bound();
    }
    // Blind windows back the served rate off multiplicatively: the longer
    // the outage, the less we claim to be able to push.
    served_ *= cfg_.aimd_beta;
    u.served_rate = served_;
    u.resyncs = resyncs_;
    drift_streak_ = 0;
    ++windows_;
    last_ = u;
    return u;
}

TrackerUpdate CapacityTracker::ingest(const core::StreamChunk& chunk) {
    if (chunk.sent.empty()) return degrade(chunk, nullptr);

    const WindowEstimate we = estimate_window(chunk.sent, chunk.received);
    const ParamEstimate& est = we.estimate;
    const double pd = est.p_d.value;
    const double pi = est.p_i.value;
    const double ps = est.p_s.value;
    if (!std::isfinite(pd) || !std::isfinite(pi) || !std::isfinite(ps))
        return degrade(chunk, &est);
    // Outside the tracked grid (clamping would silently report the edge
    // node's capacity for a channel that may be far worse — e.g. the
    // all-deleted window estimating P_d = 1): degrade explicitly.
    const auto& grid = cfg_.cache.grid;
    if (pd > grid.pd_max + 0.5 * grid.pd_step ||
        pi > grid.pi_max + 0.5 * grid.pi_step || pd + pi >= 1.0)
        return degrade(chunk, &est);
    // The grid pins p_s at the base value; a window whose substitution
    // estimate is far from it (stuck-at faults, substitution-noise floods)
    // is not described by any node.
    if (std::abs(ps - cfg_.cache.base.p_s) > cfg_.ps_tolerance)
        return degrade(chunk, &est);

    TrackerUpdate u;
    u.window = chunk.index;
    u.p_d = pd;
    u.p_i = pi;
    u.p_s = ps;
    stale_streak_ = 0;

    push_trend(pd);
    const double slp = slope();
    u.trend_slope = slp;
    if (std::abs(slp) > cfg_.drift_slope)
        ++drift_streak_;
    else
        drift_streak_ = 0;
    const bool sustained = drift_streak_ >= cfg_.drift_sustain;
    u.drift = sustained;

    const info::CapacityKey key = cache_.quantize(pd, pi);
    const info::MiEstimate mi = cache_.at(key);
    u.window_capacity = mi.rate;
    u.window_sem = mi.sem;
    u.mc_blocks = mi.blocks;
    u.converged = mi.converged;

    const bool in_warmup = windows_ < cfg_.warmup_windows;
    const bool jumped = have_smoothed_ && !in_warmup &&
                        std::abs(pd - ewma_pd_) > cfg_.resync_jump;
    if (!have_smoothed_ || jumped) {
        // First window, or change-point reset: the smoothed state (if any)
        // certifies itself stale — |window P_d - smoothed P_d| exceeds the
        // threshold — so carrying it forward would blend two regimes.
        // Re-pin to the current window.
        ewma_cap_ = mi.rate;
        ewma_var_ = mi.sem * mi.sem;
        ewma_pd_ = pd;
        ewma_pi_ = pi;
        if (jumped) ++resyncs_;
        have_smoothed_ = true;
        u.status = jumped ? TrackerStatus::resync
                          : (in_warmup ? TrackerStatus::warmup
                                       : TrackerStatus::tracking);
    } else {
        // Incremental EWMA form: a constant input is a bit-exact fixed
        // point (s + a*0 == s), which is what lets a stationary stream
        // reproduce the batch node estimate bit for bit.
        const double a = cfg_.smoothing;
        ewma_cap_ += a * (mi.rate - ewma_cap_);
        ewma_var_ = (1.0 - a) * (1.0 - a) * ewma_var_ + a * a * mi.sem * mi.sem;
        ewma_pd_ += a * (pd - ewma_pd_);
        ewma_pi_ += a * (pi - ewma_pi_);
        u.status = in_warmup ? TrackerStatus::warmup
                             : (sustained ? TrackerStatus::drifting
                                          : TrackerStatus::tracking);
    }
    u.capacity = ewma_cap_;
    u.sem = std::sqrt(ewma_var_);
    u.bound = bound();
    u.resyncs = resyncs_;

    // AIMD: converge on headroom * smoothed capacity additively; back off
    // multiplicatively whenever the estimate itself is in question.
    const double target = cfg_.headroom * ewma_cap_;
    if (u.status == TrackerStatus::resync) {
        served_ = std::min(served_, target) * cfg_.aimd_beta;
    } else if (u.status == TrackerStatus::drifting) {
        served_ *= cfg_.aimd_beta;
    } else if (served_ > target) {
        served_ = target * cfg_.aimd_beta;
    } else {
        served_ = std::min(target, served_ + cfg_.aimd_increase);
    }
    u.served_rate = served_;

    prefetch_ahead(key, pd, pi, slp);

    ++windows_;
    last_ = u;
    return u;
}

util::Checkpoint CapacityTracker::checkpoint() const {
    util::Checkpoint cp;
    cp.set_u64("fingerprint", cfg_.fingerprint());
    cp.set_u64("windows", windows_);
    cp.set_u64("have_smoothed", have_smoothed_ ? 1 : 0);
    cp.set_double("ewma_cap", ewma_cap_);
    cp.set_double("ewma_var", ewma_var_);
    cp.set_double("ewma_pd", ewma_pd_);
    cp.set_double("ewma_pi", ewma_pi_);
    cp.set_u64("drift_streak", drift_streak_);
    cp.set_u64("resyncs", resyncs_);
    cp.set_u64("stale_streak", stale_streak_);
    cp.set_double("served", served_);
    cp.set_u64("trend_len", trend_.size());
    for (std::size_t i = 0; i < trend_.size(); ++i)
        cp.set_double("trend_" + std::to_string(i), trend_[i]);
    set_update(cp, last_);
    return cp;
}

CapacityTracker CapacityTracker::resume(TrackerConfig cfg,
                                        const util::Checkpoint& state) {
    CapacityTracker t(std::move(cfg));
    if (state.u64("fingerprint") != t.cfg_.fingerprint())
        throw util::CheckpointIoError(
            util::CheckpointError::malformed,
            "checkpoint was written under a different tracker configuration "
            "(fingerprint mismatch)");
    t.windows_ = state.u64("windows");
    t.have_smoothed_ = state.u64("have_smoothed") != 0;
    t.ewma_cap_ = state.number("ewma_cap");
    t.ewma_var_ = state.number("ewma_var");
    t.ewma_pd_ = state.number("ewma_pd");
    t.ewma_pi_ = state.number("ewma_pi");
    t.drift_streak_ = state.u64("drift_streak");
    t.resyncs_ = state.u64("resyncs");
    t.stale_streak_ = state.u64("stale_streak");
    t.served_ = state.number("served");
    const std::uint64_t n = state.u64("trend_len");
    if (n > t.cfg_.trend_window)
        throw util::CheckpointIoError(
            util::CheckpointError::malformed,
            "checkpoint trend_len exceeds the configured trend window");
    t.trend_.clear();
    for (std::uint64_t i = 0; i < n; ++i)
        t.trend_.push_back(state.number("trend_" + std::to_string(i)));
    t.last_ = get_update(state);
    return t;
}

TraceChunkSource::TraceChunkSource(std::vector<std::uint32_t> sent,
                                   std::vector<std::uint32_t> received,
                                   std::size_t window_len)
    : sent_(std::move(sent)),
      received_(std::move(received)),
      window_len_(window_len) {
    if (window_len_ == 0)
        throw std::invalid_argument("TraceChunkSource: window_len must be > 0");
}

std::optional<core::StreamChunk> TraceChunkSource::next() {
    if (sent_pos_ >= sent_.size()) return std::nullopt;
    const std::size_t n = std::min(window_len_, sent_.size() - sent_pos_);
    core::StreamChunk chunk;
    chunk.index = index_++;
    chunk.sent.assign(sent_.begin() + static_cast<std::ptrdiff_t>(sent_pos_),
                      sent_.begin() + static_cast<std::ptrdiff_t>(sent_pos_ + n));

    std::size_t consumed = received_.size() - recv_pos_;
    if (sent_pos_ + n < sent_.size()) {
        // Interior window: end-free alignment against a slack-padded
        // received span decides how much of the stream this window
        // consumed — the windowed_rates cursor idiom (changepoint.hpp).
        const std::size_t avail = received_.size() - recv_pos_;
        const std::size_t w = drift_window(n, avail);
        const WindowEstimate win = estimate_window(
            std::span<const std::uint32_t>(chunk.sent),
            std::span<const std::uint32_t>(received_.data() + recv_pos_, w));
        consumed = std::min(avail, win.received_consumed);
    }
    chunk.received.assign(
        received_.begin() + static_cast<std::ptrdiff_t>(recv_pos_),
        received_.begin() + static_cast<std::ptrdiff_t>(recv_pos_ + consumed));
    recv_pos_ += consumed;
    sent_pos_ += n;
    return chunk;
}

}  // namespace ccap::estimate
