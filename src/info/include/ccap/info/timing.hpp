// Capacity of timing channels (traditional, synchronous estimators).
//
// These implement the "traditional methods" the paper's Section 4.3 tells a
// practitioner to run first — the physical capacity C of the covert channel
// under a synchronous model — before degrading by (1 - P_d):
//
//  * Shannon's noiseless timing capacity: symbols with unequal durations
//    t_i; C = log2(X0) where X0 is the positive root of sum_i X^{-t_i} = 1.
//  * Moskowitz & Miller's Simple Timing Channel (STC, 1994): a noiseless,
//    memoryless discrete timing channel — the same characteristic-equation
//    capacity, exposed in STC vocabulary.
//  * Moskowitz, Greenwald & Kang's timed Z-channel (1996): a Z-channel whose
//    symbols take unequal times; capacity = max_p I(p) / E_p[T], computed by
//    the per-unit-cost Blahut-Arimoto solver, with the closed-form
//    characteristic equation available as a cross-check.
#pragma once

#include <span>

namespace ccap::info {

/// Shannon capacity (bits per unit time) of a noiseless channel whose i-th
/// symbol takes durations[i] > 0 time units: log2 of the unique root X0 >= 1
/// of sum_i X^{-t_i} = 1. Empty durations or a single symbol give 0.
[[nodiscard]] double timing_capacity(std::span<const double> durations);

/// Simple Timing Channel: noiseless, memoryless, symbol i takes t_i ticks.
/// Identical math to timing_capacity; named per Moskowitz & Miller.
[[nodiscard]] double stc_capacity(std::span<const double> tick_durations);

struct TimedZResult {
    double capacity_per_time = 0.0;    ///< bits per unit time
    double optimal_p1 = 0.0;           ///< optimal probability of sending '1'
    bool converged = false;
};

/// Timed Z-channel: input 0 always delivered (duration t0); input 1 delivered
/// with prob 1-p as '1' (duration t1) or flips to '0' with prob p. Capacity
/// in bits per unit time via Dinkelbach / tilted Blahut-Arimoto.
[[nodiscard]] TimedZResult timed_z_capacity(double p, double t0, double t1);

}  // namespace ccap::info
