// Markov-modulated (bursty) deletion-insertion channel.
//
// The paper's Definition-1 channel draws each use's event independently —
// but the scheduler channel it models is *bursty*: once the sender starts a
// run of consecutive quanta, more deletions follow. This channel switches
// between a "good" and a "bad" parameter set via a two-state Markov chain
// (Gilbert-Elliott style), giving the same long-run event rates with
// tunable burstiness.
//
// What it is for (bench X7): the feedback protocols' rates are renewal
// averages, so they should depend only on the long-run average parameters,
// not on burstiness — an invariance the paper's bounds silently rely on
// when applied to real scheduler channels. The bench verifies it.
#pragma once

#include "ccap/core/deletion_insertion_channel.hpp"

namespace ccap::core {

struct BurstyChannelParams {
    DiChannelParams good;  ///< parameters while in the good state
    DiChannelParams bad;   ///< parameters while in the bad state
    double p_good_to_bad = 0.05;  ///< per-use switch probability
    double p_bad_to_good = 0.25;

    /// Throws std::domain_error / std::invalid_argument when malformed
    /// (both states must share bits_per_symbol; switch probs in (0,1)).
    void validate() const;

    /// Stationary probability of being in the bad state.
    [[nodiscard]] double stationary_bad() const noexcept {
        return p_good_to_bad / (p_good_to_bad + p_bad_to_good);
    }

    /// Long-run average Definition-1 parameters (stationary mixture).
    [[nodiscard]] DiChannelParams average() const;
};

class MarkovModulatedChannel final : public SymbolChannel {
public:
    MarkovModulatedChannel(BurstyChannelParams params, std::uint64_t seed);

    /// Long-run average parameters (what the paper's formulas apply to).
    [[nodiscard]] const DiChannelParams& params() const noexcept override { return average_; }
    /// Fraction of uses spent in the bad state so far (0 before first use).
    [[nodiscard]] double measured_bad_fraction() const noexcept;

    [[nodiscard]] ChannelUseOutcome use(std::uint32_t queued) override;

private:
    BurstyChannelParams params_;
    DiChannelParams average_;
    util::Rng rng_;
    bool bad_state_ = false;
    std::uint64_t uses_ = 0;
    std::uint64_t bad_uses_ = 0;
};

}  // namespace ccap::core
