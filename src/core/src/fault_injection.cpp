#include "ccap/core/fault_injection.hpp"

#include <cmath>
#include <stdexcept>

namespace ccap::core {

bool FaultProfile::is_null() const noexcept {
    const bool storms_off = storm_period == 0 || storm_len == 0;
    const bool drift_off = drift_amplitude == 0.0 || drift_period == 0;
    const bool stuck_off = stuck_period == 0 || stuck_len == 0;
    return storms_off && drift_off && stuck_off;
}

void FaultProfile::validate() const {
    if (!std::isfinite(drift_amplitude) || drift_amplitude < 0.0 || drift_amplitude > 1.0)
        throw std::domain_error("FaultProfile: drift_amplitude must be finite in [0,1]");
    if (storm_len > 0 && storm_period == 0)
        throw std::invalid_argument("FaultProfile: storm_len without storm_period");
    if (storm_period > 0 && storm_len > storm_period)
        throw std::invalid_argument("FaultProfile: storm_len exceeds storm_period");
    if (drift_amplitude > 0.0 && drift_period == 0)
        throw std::invalid_argument("FaultProfile: drift_amplitude without drift_period");
    if (stuck_len > 0 && stuck_period == 0)
        throw std::invalid_argument("FaultProfile: stuck_len without stuck_period");
    if (stuck_period > 0 && stuck_len > stuck_period)
        throw std::invalid_argument("FaultProfile: stuck_len exceeds stuck_period");
}

FaultProfile FaultProfile::storms(std::uint64_t period, std::uint64_t len) {
    FaultProfile p;
    p.name = "storms";
    p.storm_period = period;
    p.storm_len = len;
    p.validate();
    return p;
}

FaultProfile FaultProfile::drifting(double amplitude, std::uint64_t period) {
    FaultProfile p;
    p.name = "drift";
    p.drift_amplitude = amplitude;
    p.drift_period = period;
    p.validate();
    return p;
}

FaultProfile FaultProfile::stuck_at(std::uint64_t period, std::uint64_t len,
                                    std::uint32_t symbol) {
    FaultProfile p;
    p.name = "stuck";
    p.stuck_period = period;
    p.stuck_len = len;
    p.stuck_symbol = symbol;
    p.validate();
    return p;
}

bool named_fault_profile(const std::string& name, FaultProfile& out) {
    if (name == "none") {
        out = FaultProfile{};
        return true;
    }
    if (name == "storms") {
        out = FaultProfile::storms(4096, 256);
        return true;
    }
    if (name == "drift") {
        out = FaultProfile::drifting(0.25, 8192);
        return true;
    }
    if (name == "stuck") {
        out = FaultProfile::stuck_at(8192, 512, 0);
        return true;
    }
    return false;
}

const char* fault_profile_presets_help() noexcept {
    return "none | storms (blackout 256/4096 uses) | drift (cos P_d swing amp 0.25,"
           " period 8192) | stuck (stuck-at-0, 512/8192 uses)";
}

FaultyChannel::FaultyChannel(SymbolChannel& inner, FaultProfile profile, std::uint64_t seed)
    : inner_(&inner),
      profile_(std::move(profile)),
      null_profile_(profile_.is_null()),
      drift_on_(profile_.drift_amplitude > 0.0 && profile_.drift_period > 0),
      windows_on_((profile_.storm_period != 0 && profile_.storm_len != 0) ||
                  (profile_.stuck_period != 0 && profile_.stuck_len != 0)),
      rng_(seed) {
    profile_.validate();
}

ChannelUseOutcome FaultyChannel::use(std::uint32_t queued) {
    ChannelUseOutcome out = inner_->use(queued);
    const UseEvent seen = apply({out.kind, out.delivered.value_or(0)});
    out.kind = seen.kind;
    if (seen.kind == ChannelEvent::deletion)
        out.delivered.reset();
    else
        out.delivered = seen.symbol;
    return out;
}

UseEvent FaultyChannel::apply_windows(UseEvent e, std::uint64_t t, std::uint64_t phase) {
    if (e.kind != ChannelEvent::deletion) {
        if (in_window(t, profile_.storm_period, profile_.storm_len)) {
            e.kind = ChannelEvent::deletion;
            ++stats_.storm_drops;
        } else if (drift_on_ && drift_drop(phase)) {
            e.kind = ChannelEvent::deletion;
        }
    }
    if (e.kind != ChannelEvent::deletion &&
        in_window(t, profile_.stuck_period, profile_.stuck_len)) {
        const std::uint32_t stuck = profile_.stuck_symbol & (inner_->params().alphabet() - 1U);
        if (e.symbol != stuck) {
            e.symbol = stuck;
            ++stats_.stuck_overrides;
        }
    }
    return e;
}

double FaultyChannel::extend_drift_table(std::uint64_t k) {
    if (profile_.drift_period > kMaxDriftTable) return profile_.drift_delta(k);
    while (drift_table_.size() <= k)
        drift_table_.push_back(profile_.drift_delta(drift_table_.size()));
    return drift_table_[k];
}

void FeedbackLinkParams::validate() const {
    if (!std::isfinite(p_loss) || p_loss < 0.0 || p_loss > 1.0)
        throw std::domain_error("FeedbackLinkParams: p_loss must be finite in [0,1]");
    if (!std::isfinite(p_corrupt) || p_corrupt < 0.0 || p_corrupt > 1.0)
        throw std::domain_error("FeedbackLinkParams: p_corrupt must be finite in [0,1]");
}

FeedbackLink::FeedbackLink(FeedbackLinkParams params, std::uint64_t seed)
    : params_(params), rng_(seed) {
    params_.validate();
}

FeedbackLink::Delivery FeedbackLink::transmit(std::span<const std::uint8_t> frame_bits) {
    ++stats_.sent;
    Delivery d;
    d.bits.assign(frame_bits.begin(), frame_bits.end());
    if (params_.perfect()) return d;  // no RNG draws on the perfect link

    // Fixed draw order (loss, corruption, jitter) keeps replays aligned
    // regardless of which branches fire.
    const bool lost = params_.p_loss > 0.0 && rng_.bernoulli(params_.p_loss);
    const bool corrupt = params_.p_corrupt > 0.0 && rng_.bernoulli(params_.p_corrupt);
    d.delay = params_.delay;
    if (params_.jitter > 0) d.delay += rng_.uniform_below(params_.jitter + 1);
    if (lost) {
        d.lost = true;
        d.delay = 0;
        ++stats_.lost;
        return d;
    }
    if (corrupt && !d.bits.empty()) {
        // Flip 1..3 distinct positions. CRC-16-CCITT has Hamming distance
        // >= 4 on the short frames the protocols send, so every corruption
        // injected here is detected by the receiver-side CRC check.
        const std::uint64_t flips =
            1 + rng_.uniform_below(std::min<std::uint64_t>(3, d.bits.size()));
        for (std::uint64_t f = 0; f < flips; ++f) {
            const std::size_t pos =
                static_cast<std::size_t>(rng_.uniform_below(d.bits.size()));
            d.bits[pos] ^= 1U;
        }
        ++stats_.corrupted;
    }
    return d;
}

}  // namespace ccap::core
