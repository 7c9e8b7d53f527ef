#include "ccap/util/rng.hpp"

#include <cmath>
#include <numbers>

namespace ccap::util {

std::size_t Rng::categorical(std::span<const double> weights) noexcept {
    if (weights.empty()) return 0;
    double total = 0.0;
    for (double w : weights) total += (w > 0.0 ? w : 0.0);
    // Degenerate all-zero weights: uniform is the only unbiased answer that
    // keeps the result in range (a clamped fixed index would skew samplers).
    if (total <= 0.0) return uniform_below(weights.size());
    double target = uniform() * total;
    for (std::size_t i = 0; i < weights.size(); ++i) {
        const double w = weights[i] > 0.0 ? weights[i] : 0.0;
        if (target < w) return i;
        target -= w;
    }
    // Floating-point round-off: fall back to the last positive weight.
    for (std::size_t i = weights.size(); i-- > 0;)
        if (weights[i] > 0.0) return i;
    return weights.size() - 1;  // unreachable (total > 0), kept for safety
}

double Rng::normal() noexcept {
    // Box-Muller, discarding the second variate to keep the stream simple.
    double u1 = uniform();
    const double u2 = uniform();
    if (u1 <= 0.0) u1 = 0x1.0p-53;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
}

GeometricTable::GeometricTable(double log1m, std::uint32_t cap)
    : log1m_(log1m), cap_(cap), steps_(std::size_t{cap} + 2), guide_(std::size_t{1} << 12) {
    constexpr std::uint64_t kEnd = std::uint64_t{1} << 53;  // one past the largest draw
    // steps_[k] is the first bits with gap >= k: a bisection over
    // [steps_[k - 1], 2^53] on the formula itself, so the table encodes
    // whatever the host's log computes.
    steps_[0] = 0;
    for (std::size_t k = 1; k <= cap; ++k) {
        std::uint64_t lo = steps_[k - 1], hi = kEnd;
        while (lo < hi) {
            const std::uint64_t mid = lo + (hi - lo) / 2;
            if (geometric_gap_of_bits(mid, log1m) >= k)
                hi = mid;
            else
                lo = mid + 1;
        }
        steps_[k] = lo;
    }
    steps_[std::size_t{cap} + 1] = kEnd;
    std::uint32_t k = 0;
    for (std::size_t b = 0; b < guide_.size(); ++b) {
        const std::uint64_t first = std::uint64_t{b} << kGuideShift;
        while (k < cap && steps_[k + 1] <= first) ++k;
        guide_[b] = k;
    }
}

}  // namespace ccap::util
