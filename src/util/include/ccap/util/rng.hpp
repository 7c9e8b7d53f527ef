// Deterministic pseudo-random number generation for simulations.
//
// Every stochastic component in the library (channels, schedulers, protocol
// executions, Monte-Carlo estimators) draws from an explicitly seeded Rng so
// that every experiment in EXPERIMENTS.md is bit-reproducible. The generator
// is xoshiro256** seeded through SplitMix64, which is both fast and of far
// higher quality than std::minstd/rand and, unlike std::mt19937, has a
// guaranteed cross-platform stream for a given seed.
#pragma once

#include <array>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

namespace ccap::util {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t& state) noexcept {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/// Seed of the `index`-th parallel substream of a root seed. Stateless and
/// order-free: worker k can seed Rng(substream_seed(root, k)) without
/// touching any shared generator, so a parallel Monte-Carlo run is
/// bit-identical for every thread count. Distinct indices land on distinct
/// SplitMix64 golden-ratio offsets, giving well-separated xoshiro states.
[[nodiscard]] constexpr std::uint64_t substream_seed(std::uint64_t root,
                                                    std::uint64_t index) noexcept {
    std::uint64_t state = root + 0x9E3779B97F4A7C15ULL * index;
    return splitmix64(state);
}

/// The geometric gap (failures before the first success at probability p)
/// that a 53-bit draw `bits` = next() >> 11 inverts to, given
/// log1m = log1p(-p) for p in (0, 1]: trunc(log(1 - bits * 2^-53) / log1m),
/// on U = 1 - uniform() in (0, 1]. log1m = -inf (p = 1) yields 0. The
/// quotient is >= 0 (or -0.0), so truncation equals floor; quotients of
/// 2^64 or more, reachable only for p below about 2e-18, saturate to ~0ULL.
/// The one copy of the formula: Rng::geometric and GeometricTable's step
/// points and fallback all evaluate it.
[[nodiscard]] inline std::uint64_t geometric_gap_of_bits(std::uint64_t bits,
                                                         double log1m) noexcept {
    const double x = std::log(1.0 - static_cast<double>(bits) * 0x1.0p-53) / log1m;
    // The signed conversion is the cheap one; [2^63, 2^64) holds only
    // integers, which the unsigned conversion takes exactly.
    if (x < 0x1.0p63) return static_cast<std::uint64_t>(static_cast<std::int64_t>(x));
    if (x < 0x1.0p64) return static_cast<std::uint64_t>(x);
    return ~0ULL;
}

/// xoshiro256** 1.0 — deterministic, seedable, 2^256-1 period.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x5EEDC0DEDEADBEEFULL) noexcept { reseed(seed); }

    void reseed(std::uint64_t seed) noexcept {
        std::uint64_t sm = seed;
        for (auto& word : state_) word = splitmix64(sm);
    }

    /// Next 64 uniformly distributed bits.
    [[nodiscard]] std::uint64_t next() noexcept {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;
        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);
        return result;
    }

    /// Uniform double in [0, 1) with 53 bits of randomness.
    [[nodiscard]] double uniform() noexcept {
        return static_cast<double>(next() >> 11) * 0x1.0p-53;
    }

    /// Uniform integer in [0, bound). Requires bound > 0. Unbiased
    /// (rejection); bound <= 1 returns 0 without a draw. A power-of-two
    /// bound takes one draw's low bits: its rejection threshold
    /// (2^64 - bound) mod bound is 0 and r % bound = r & (bound - 1), so
    /// the values are the rejection path's.
    [[nodiscard]] std::uint64_t uniform_below(std::uint64_t bound) noexcept {
        if (bound <= 1) return 0;
        if ((bound & (bound - 1)) == 0) return next() & (bound - 1);
        const std::uint64_t threshold = (~bound + 1) % bound;  // (2^64 - bound) mod bound
        for (;;) {
            const std::uint64_t r = next();
            if (r >= threshold) return r % bound;
        }
    }

    /// Bernoulli trial: true with probability p (clamped to [0,1]).
    [[nodiscard]] bool bernoulli(double p) noexcept { return uniform() < p; }

    /// Sample an index from an (unnormalized) non-negative weight vector.
    /// For non-empty weights the result is always in range: a degenerate
    /// all-zero vector falls back to a uniform draw rather than a biased
    /// fixed index. Empty weights return 0 (there is no valid index).
    [[nodiscard]] std::size_t categorical(std::span<const double> weights) noexcept;

    /// Geometric: number of failures before first success, success prob p.
    /// p >= 1 returns 0 and p <= 0 returns ~0ULL ("never"), both without a
    /// draw; otherwise one draw, inverted by geometric_gap_of_bits.
    [[nodiscard]] std::uint64_t geometric(double p) noexcept {
        if (p >= 1.0) return 0;
        if (p <= 0.0) return ~0ULL;
        return geometric_gap_of_bits(next() >> 11, std::log1p(-p));
    }

    /// Standard normal via Box-Muller (no cached spare: deterministic stream).
    [[nodiscard]] double normal() noexcept;

    /// Fisher–Yates in-place shuffle.
    template <typename T>
    void shuffle(std::vector<T>& items) noexcept {
        for (std::size_t i = items.size(); i > 1; --i) {
            using std::swap;
            swap(items[i - 1], items[uniform_below(i)]);
        }
    }

private:
    [[nodiscard]] static constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
        return (x << k) | (x >> (64 - k));
    }
    std::array<std::uint64_t, 4> state_{};
};

/// Geometric gaps at one p without a `log` per draw: a table of the steps
/// of geometric_gap_of_bits with a guide index (Chen & Asau's guide table).
/// The gap is a non-decreasing step function of the 53-bit draw (THEORY
/// §13), so draw(rng) consumes one next() and returns
/// geometric_gap_of_bits(next() >> 11, log1m) for every draw. Gaps below
/// `cap` come from the table; a draw at or past the cap-th step point
/// evaluates the formula itself. Built once per p (cap bisections of the
/// formula), then read-only and shareable across threads.
class GeometricTable {
public:
    /// `log1m = std::log1p(-p)` for p in (0, 1].
    GeometricTable(double log1m, std::uint32_t cap);

    [[nodiscard]] std::uint64_t draw(Rng& rng) const noexcept { return gap(rng.next() >> 11); }

    /// geometric_gap_of_bits(bits, log1m) for a 53-bit `bits`.
    [[nodiscard]] std::uint64_t gap(std::uint64_t bits) const noexcept {
        std::uint32_t k = guide_[bits >> kGuideShift];
        while (steps_[k + 1] <= bits) ++k;
        return k < cap_ ? k : geometric_gap_of_bits(bits, log1m_);
    }

private:
    static constexpr int kGuideShift = 53 - 12;  // 2^12 guide buckets

    double log1m_;
    std::uint32_t cap_;
    /// steps_[k], k = 1..cap: the smallest bits whose gap is >= k (2^53
    /// where none is); steps_[0] = 0 and steps_[cap + 1] = 2^53 bound the scan.
    std::vector<std::uint64_t> steps_;
    /// guide_[b]: the gap at bits = b << kGuideShift, capped at cap.
    std::vector<std::uint32_t> guide_;
};

}  // namespace ccap::util
