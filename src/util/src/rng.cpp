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

}  // namespace ccap::util
