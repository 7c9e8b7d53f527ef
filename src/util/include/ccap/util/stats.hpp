// Streaming statistics: the compensated mean/SEM fold every Monte-Carlo
// estimator uses, and the Welford running moments it is tested against.
#pragma once

#include <cstddef>

namespace ccap::util {

/// Numerically stable running mean/variance (Welford's algorithm): the
/// reference CompensatedStats is checked against.
class RunningStats {
public:
    void add(double x) noexcept;

    [[nodiscard]] double mean() const noexcept { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance; 0 when fewer than two samples.
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    /// Standard error of the mean.
    [[nodiscard]] double sem() const noexcept;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
};

/// Fold-order-deterministic compensated mean/SEM accumulator — the shared
/// fold of all Monte-Carlo estimators (deletion_bounds.hpp).
///
/// The adaptive-precision MC driver stops on the standard error of the
/// mean, so the SEM must stay trustworthy in the adversarial regime of a
/// tiny spread riding on a large mean (e.g. rate samples 1e9 +- 1e-6): a
/// naive sum-of-squares variance cancels catastrophically there, and plain
/// Welford loses the low bits of the updates. This accumulator instead
/// keeps Kahan-compensated sums of (x - K) and (x - K)^2 with the shift K
/// pinned to the first sample, so both sums live at the noise scale and
/// the subtraction in the variance is benign.
///
/// Determinism: add() is a pure fold — the same samples in the same order
/// produce bit-identical state on every run, thread count and machine
/// (no FMA contraction, no reassociation; the compensation arithmetic is
/// fixed IEEE-754 sequence). The MC estimators rely on this to make the
/// adaptive stopping time a pure function of the root seed.
class CompensatedStats {
public:
    void add(double x) noexcept;

    [[nodiscard]] double mean() const noexcept;
    /// Unbiased sample variance; 0 when fewer than two samples (never
    /// negative: the compensated residual is clamped).
    [[nodiscard]] double variance() const noexcept;
    [[nodiscard]] double stddev() const noexcept;
    /// Standard error of the mean; 0 when fewer than two samples.
    [[nodiscard]] double sem() const noexcept;

private:
    std::size_t n_ = 0;
    double shift_ = 0.0;               ///< K = first sample
    double sum_ = 0.0, sum_c_ = 0.0;   ///< Kahan sum of (x - K)
    double sq_ = 0.0, sq_c_ = 0.0;     ///< Kahan sum of (x - K)^2
};

}  // namespace ccap::util
