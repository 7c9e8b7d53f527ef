// Fault injection for the Definition-1 channel and its feedback path.
//
// The paper's achievability results (Theorems 3/4, Appendix A) assume the
// feedback path is "perfect and instantaneous" and that the channel's
// parameters hold for the whole run. Real covert channels violate both:
// schedulers stall in bursts, loads drift, and the return path is itself a
// lossy covert channel. This module makes those imperfections first-class
// and *deterministic*, so every degraded run is replayable bit for bit:
//
//   * FaultProfile — a seeded, clock-indexed fault schedule: periodic burst
//     deletion storms, smooth non-stationary extra deletion probability
//     delta(t), and stuck-at substitution windows.
//   * FaultyChannel — a decorator over any SymbolChannel (Definition-1,
//     bursty, ...) applying the profile per use. With a null profile it is
//     a bit-identical passthrough: no RNG draws, no outcome rewrites.
//   * FeedbackLink — the return path, with report loss probability,
//     payload corruption, and fixed-plus-jittered delay. A link whose
//     parameters are all zero is the paper's perfect feedback path.
//
// The hardened protocols in feedback_protocols.hpp drive both; benches
// plot their graceful-degradation curves against the closed forms in
// protocol_analysis.hpp.
#pragma once

#include <cmath>
#include <cstdint>
#include <numbers>
#include <string>
#include <vector>

#include "ccap/coding/bitvec.hpp"
#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/util/rng.hpp"

namespace ccap::core {

/// Deterministic fault schedule, indexed by the channel-use clock t = 0, 1,
/// 2, ... Every component is optional; a default-constructed profile is the
/// null profile (no faults).
struct FaultProfile {
    /// Stamped into bench records (`fault_profile`), so a figure names the
    /// fault profile it was measured under.
    std::string name = "none";

    // --- Burst deletion storms -------------------------------------------
    // During uses [k * storm_period, k * storm_period + storm_len) every
    // delivery (transmission or insertion) is blacked out: the receiver
    // sees nothing, the sender's queue semantics are untouched.
    std::uint64_t storm_period = 0;  ///< 0 disables storms
    std::uint64_t storm_len = 0;

    // --- Non-stationary deletion drift -----------------------------------
    // Extra per-use delivery-drop probability
    //   delta(t) = drift_amplitude * (1 - cos(2 pi t / drift_period)) / 2,
    // a smooth P_d(t) swing peaking at drift_amplitude mid-period and
    // returning to the nominal parameters at the period boundaries.
    double drift_amplitude = 0.0;    ///< 0 disables drift
    std::uint64_t drift_period = 0;

    // --- Stuck-at substitutions ------------------------------------------
    // During uses [k * stuck_period, k * stuck_period + stuck_len) every
    // delivered symbol is replaced by stuck_symbol (a jammed shared
    // resource reads as a constant).
    std::uint64_t stuck_period = 0;  ///< 0 disables stuck-at windows
    std::uint64_t stuck_len = 0;
    std::uint32_t stuck_symbol = 0;

    /// True when no fault component is active — FaultyChannel passes
    /// through bit-identically.
    [[nodiscard]] bool is_null() const noexcept;

    /// delta at schedule phase k = t % drift_period (drift active).
    [[nodiscard]] double drift_delta(std::uint64_t k) const noexcept {
        const double phase = static_cast<double>(k) / static_cast<double>(drift_period);
        return drift_amplitude * (1.0 - std::cos(2.0 * std::numbers::pi * phase)) / 2.0;
    }

    /// Throws std::domain_error / std::invalid_argument when malformed
    /// (non-finite or out-of-range amplitude, window longer than period,
    /// active component with a zero period).
    void validate() const;

    // Named presets used by benches and the CLI.
    [[nodiscard]] static FaultProfile storms(std::uint64_t period, std::uint64_t len);
    [[nodiscard]] static FaultProfile drifting(double amplitude, std::uint64_t period);
    [[nodiscard]] static FaultProfile stuck_at(std::uint64_t period, std::uint64_t len,
                                               std::uint32_t symbol);
};

/// Canonical parameterizations of the named presets, reachable from the CLI
/// (`--profile NAME` on `protocol` and `track`) without reading the source:
///   none    null profile (no faults)
///   storms  burst deletion blackouts: period 4096 uses, len 256
///   drift   cosine non-stationary deletion swing: amplitude 0.25, period 8192
///   stuck   stuck-at-0 substitution windows: period 8192, len 512
/// Unknown names return false and leave `out` untouched.
[[nodiscard]] bool named_fault_profile(const std::string& name, FaultProfile& out);

/// One line for usage/help text: every preset name with its parameters.
[[nodiscard]] const char* fault_profile_presets_help() noexcept;

/// What FaultyChannel did to the underlying outcome stream.
struct FaultStats {
    std::uint64_t uses = 0;
    std::uint64_t storm_drops = 0;   ///< deliveries blacked out by storms
    std::uint64_t drift_drops = 0;   ///< deliveries dropped by delta(t)
    std::uint64_t stuck_overrides = 0;  ///< delivered symbols forced to stuck_symbol

    [[nodiscard]] std::uint64_t injected_faults() const noexcept {
        return storm_drops + drift_drops + stuck_overrides;
    }
};

/// Decorator over any SymbolChannel applying a FaultProfile per use. The
/// schedule clock is the decorator's own use counter, so the same profile
/// and seed replay the same fault sequence over any inner channel. The
/// inner channel's RNG stream is never touched: drift draws come from the
/// decorator's own generator, and the null profile draws nothing at all.
class FaultyChannel final : public SymbolChannel {
public:
    /// Does not take ownership of `inner`; it must outlive the decorator.
    FaultyChannel(SymbolChannel& inner, FaultProfile profile, std::uint64_t seed);

    /// Nominal long-run parameters of the *inner* channel. Faults push the
    /// realized event rates away from these — quantifying that gap is what
    /// the estimators are for.
    [[nodiscard]] const DiChannelParams& params() const noexcept override {
        return inner_->params();
    }
    [[nodiscard]] const FaultStats& stats() const noexcept { return stats_; }

    [[nodiscard]] ChannelUseOutcome use(std::uint32_t queued) override;

    /// Longest drift period whose delta(t) is tabled, one double per phase
    /// (64 KiB at the `drift` preset's 8192); a longer period computes each
    /// delta directly. An implementation limit: both give the same doubles.
    static constexpr std::uint64_t kMaxDriftTable = 8192;

private:
    friend class FaultStreamSource;  // drives its concrete inner channel, then apply()

    /// The profile applied to `e`, the inner channel's event of the next
    /// use: a fault turns a delivery into a deletion or rewrites its symbol.
    /// Advances the schedule clock. Inline, so a caller holding the concrete
    /// inner channel runs a whole use without a virtual call; a profile with
    /// storm or stuck-at windows goes through apply_windows.
    [[nodiscard]] UseEvent apply(UseEvent e) {
        const std::uint64_t t = stats_.uses++;
        if (null_profile_) return e;  // bit-identical passthrough, no RNG draws
        const std::uint64_t phase = drift_phase_;  // t % drift_period, without a division
        if (drift_on_ && ++drift_phase_ == profile_.drift_period) drift_phase_ = 0;
        if (windows_on_) return apply_windows(e, t, phase);
        // Drift alone: a drop is the only fault.
        if (e.kind != ChannelEvent::deletion && drift_drop(phase))
            e.kind = ChannelEvent::deletion;
        return e;
    }

    /// apply() for a profile with storm or stuck-at windows. Blackout
    /// faults drop the delivery but preserve whether the queued symbol was
    /// consumed: the sender's queue semantics (and the inner channel's own
    /// state) are exactly what they were — only the receiver's view
    /// changes, which is what a scheduler stall or a jammed return path
    /// does.
    [[nodiscard]] UseEvent apply_windows(UseEvent e, std::uint64_t t, std::uint64_t phase);

    /// Draws whether delta(t) drops the delivery at use t (`phase` = t %
    /// drift_period), and counts a drop. delta comes from the table once
    /// the clock has reached its phase.
    [[nodiscard]] bool drift_drop(std::uint64_t phase) {
        const double delta =
            phase < drift_table_.size() ? drift_table_[phase] : extend_drift_table(phase);
        if (!(delta > 0.0 && rng_.bernoulli(delta))) return false;
        ++stats_.drift_drops;
        return true;
    }
    /// Tables delta up to phase k and returns it; computes it directly
    /// when the period is longer than kMaxDriftTable.
    double extend_drift_table(std::uint64_t k);

    [[nodiscard]] bool in_window(std::uint64_t t, std::uint64_t period,
                                 std::uint64_t len) const noexcept {
        return period != 0 && len != 0 && (t % period) < len;
    }

    SymbolChannel* inner_;
    FaultProfile profile_;
    bool null_profile_;
    bool drift_on_;
    bool windows_on_;  ///< storm or stuck-at windows scheduled
    std::uint64_t drift_phase_ = 0;
    util::Rng rng_;
    FaultStats stats_;
    std::vector<double> drift_table_;  ///< delta by phase, filled up to the highest reached
};

// ---------------------------------------------------------------------------
// Feedback link
// ---------------------------------------------------------------------------

struct FeedbackLinkParams {
    double p_loss = 0.0;     ///< per-report loss probability
    double p_corrupt = 0.0;  ///< per-report payload-corruption probability
    std::uint64_t delay = 0;   ///< fixed report latency, in channel uses
    std::uint64_t jitter = 0;  ///< extra uniform latency in [0, jitter]

    /// The paper's perfect feedback path: lossless, clean, instantaneous.
    [[nodiscard]] bool perfect() const noexcept {
        return p_loss == 0.0 && p_corrupt == 0.0 && delay == 0 && jitter == 0;
    }
    /// Throws std::domain_error on non-finite or out-of-range probabilities.
    void validate() const;
};

/// Running totals of what the link did to the report stream.
struct FeedbackStats {
    std::uint64_t sent = 0;
    std::uint64_t lost = 0;
    std::uint64_t corrupted = 0;  ///< frames damaged in flight (bits flipped)
};

/// Seeded model of the feedback path. Reports are framed as bit vectors so
/// protocols can CRC-protect them (coding/crc.hpp); corruption flips one to
/// three random frame bits — always within CRC-16's guaranteed detection
/// distance for the short frames the protocols use, so a corrupted frame is
/// *detectably* corrupted, never silently wrong.
class FeedbackLink {
public:
    struct Delivery {
        bool lost = false;
        std::uint64_t delay = 0;   ///< uses until arrival (0 when lost)
        coding::Bits bits;         ///< frame as (possibly corrupted) bits
    };

    FeedbackLink(FeedbackLinkParams params, std::uint64_t seed);

    [[nodiscard]] const FeedbackLinkParams& params() const noexcept { return params_; }
    [[nodiscard]] const FeedbackStats& stats() const noexcept { return stats_; }

    /// One report over the return path. A perfect link forwards the frame
    /// untouched without consuming any randomness, so zero-fault protocol
    /// runs replay the unhardened protocols bit for bit.
    [[nodiscard]] Delivery transmit(std::span<const std::uint8_t> frame_bits);

private:
    FeedbackLinkParams params_;
    util::Rng rng_;
    FeedbackStats stats_;
};

}  // namespace ccap::core
