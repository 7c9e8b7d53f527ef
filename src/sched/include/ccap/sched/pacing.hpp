// Token-budget pacing controller for the contention engine.
//
// Models the serving side of one shared resource slice: every simulated
// tick deposits `budget_per_tick` service tokens, idle budget accumulates
// up to `burst_budget`, and each served symbol consumes one token (or any
// fractional cost). This is the pacing half of the classic WebRTC-style
// pacer (pacing_controller + round_robin_packet_queue, ROADMAP item 3);
// the queueing half lives in flow_queue.hpp.
//
// Deterministic by construction: the controller draws no randomness and is
// only ever driven from one slice's event loop, so replaying the same event
// sequence replays the same budget trajectory bit for bit. on_tick and
// try_consume are defined here, inline: the contention engine's slice loop
// calls try_consume once per served symbol.
#pragma once

namespace ccap::sched {

struct PacingConfig {
    /// Service tokens deposited per tick (symbols the slice can serve).
    double budget_per_tick = 1.0;
    /// Cap on accumulated idle budget. 0 picks budget_per_tick, i.e. an
    /// idle tick may be banked for at most one tick of burst.
    double burst_budget = 0.0;
};

class PacingController {
public:
    explicit PacingController(PacingConfig cfg);

    /// Deposit one tick's budget (clamped to the burst cap).
    void on_tick() {
        budget_ += cfg_.budget_per_tick;
        // The burst cap bounds *banked* budget: a tick's fresh deposit is
        // always spendable in full, so a budget_per_tick above the cap still
        // serves.
        const double cap = cfg_.burst_budget > cfg_.budget_per_tick ? cfg_.burst_budget
                                                                    : cfg_.budget_per_tick;
        if (budget_ > cap) budget_ = cap;
    }

    /// Spend `cost` tokens if available; false (and nothing spent) if not.
    bool try_consume(double cost = 1.0) {
        if (budget_ < cost) return false;
        budget_ -= cost;
        return true;
    }

private:
    PacingConfig cfg_;
    double budget_ = 0.0;
};

}  // namespace ccap::sched
