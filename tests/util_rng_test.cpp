#include "ccap/util/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

namespace {

using ccap::util::Rng;

TEST(Rng, DeterministicForSeed) {
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next()) ++same;
    EXPECT_LE(same, 1);
}

TEST(Rng, ReseedRestartsStream) {
    Rng a(77);
    const std::uint64_t first = a.next();
    (void)a.next();
    a.reseed(77);
    EXPECT_EQ(a.next(), first);
}

TEST(Rng, UniformInUnitInterval) {
    Rng rng(5);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf) {
    Rng rng(6);
    double sum = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) sum += rng.uniform();
    EXPECT_NEAR(sum / kN, 0.5, 0.01);
}

TEST(Rng, UniformBelowRespectsBound) {
    Rng rng(7);
    for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_below(bound), bound);
    }
}

TEST(Rng, UniformBelowOneAlwaysZero) {
    Rng rng(8);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.uniform_below(1), 0U);
}

TEST(Rng, UniformBelowCoversAllValues) {
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_below(7));
    EXPECT_EQ(seen.size(), 7U);
}

// The inline draw, power-of-two fast path included, against the rejection
// formula it replaced, on a twin stream: same values, same draws consumed.
TEST(Rng, UniformBelowMatchesRejectionPath) {
    const auto rejection = [](Rng& rng, std::uint64_t bound) -> std::uint64_t {
        if (bound <= 1) return 0;
        const std::uint64_t threshold = (~bound + 1) % bound;
        for (;;) {
            const std::uint64_t r = rng.next();
            if (r >= threshold) return r % bound;
        }
    };
    for (const std::uint64_t bound :
         {1ULL, 2ULL, 4ULL, 256ULL, 1ULL << 63, 3ULL, 5ULL, 1000ULL, (1ULL << 63) + 1}) {
        Rng a(24), b(24);
        for (int i = 0; i < 5000; ++i)
            ASSERT_EQ(a.uniform_below(bound), rejection(b, bound))
                << "bound=" << bound << " draw " << i;
        EXPECT_EQ(a.next(), b.next()) << "bound=" << bound;
    }
}

TEST(Rng, BernoulliExtremes) {
    Rng rng(11);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequency) {
    Rng rng(12);
    int hits = 0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / kN, 0.3, 0.01);
}

TEST(Rng, CategoricalRespectsWeights) {
    Rng rng(13);
    const std::array<double, 3> weights = {1.0, 0.0, 3.0};
    std::array<int, 3> counts{};
    constexpr int kN = 40000;
    for (int i = 0; i < kN; ++i) {
        const std::size_t k = rng.categorical(weights);
        ASSERT_LT(k, weights.size());
        ++counts[k];
    }
    EXPECT_EQ(counts[1], 0);
    EXPECT_NEAR(static_cast<double>(counts[0]) / kN, 0.25, 0.02);
    EXPECT_NEAR(static_cast<double>(counts[2]) / kN, 0.75, 0.02);
}

TEST(Rng, CategoricalAllZeroFallsBackToUniform) {
    // Degenerate all-zero weights must still give an in-range, unbiased
    // index (the old out-of-range sentinel forced biased clamps on callers).
    Rng rng(14);
    const std::array<double, 4> weights = {0.0, 0.0, 0.0, 0.0};
    std::array<int, 4> counts{};
    constexpr int kN = 20000;
    for (int i = 0; i < kN; ++i) {
        const std::size_t k = rng.categorical(weights);
        ASSERT_LT(k, weights.size());
        ++counts[k];
    }
    for (int c : counts) EXPECT_NEAR(static_cast<double>(c) / kN, 0.25, 0.02);
}

TEST(Rng, CategoricalEmpty) {
    Rng rng(15);
    EXPECT_EQ(rng.categorical({}), 0U);
}

TEST(Rng, GeometricMeanMatches) {
    Rng rng(16);
    const double p = 0.25;
    double sum = 0.0;
    constexpr int kN = 50000;
    for (int i = 0; i < kN; ++i) sum += static_cast<double>(rng.geometric(p));
    // Mean failures before success = (1-p)/p = 3.
    EXPECT_NEAR(sum / kN, 3.0, 0.1);
}

TEST(Rng, GeometricCertainSuccessIsZero) {
    Rng rng(17);
    for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 0U);
}

// Pins geometric(p) and the shared gap formula to the inversion
// floor(log(1 - U) / log1p(-p)) on a twin stream, so an oracle that calls
// geometric(p) stays independent of the hoisted-log, truncating formula.
TEST(Rng, GeometricMatchesFloorInversionBitForBit) {
    for (const double p : {1e-12, 1e-6, 0.06875, 0.3, 0.5, 1.0 - 1e-9}) {
        const double log1m = std::log1p(-p);
        Rng a(19), b(19), ref(19);
        for (int i = 0; i < 20000; ++i) {
            const double x = std::floor(std::log(1.0 - ref.uniform()) / std::log1p(-p));
            const auto want = static_cast<std::uint64_t>(x);
            ASSERT_EQ(a.geometric(p), want) << "p=" << p << " draw " << i;
            ASSERT_EQ(ccap::util::geometric_gap_of_bits(b.next() >> 11, log1m), want)
                << "p=" << p << " draw " << i;
        }
    }
}

TEST(Rng, GeometricEdgesDrawNothing) {
    Rng a(20), ref(20);
    EXPECT_EQ(a.geometric(1.0), 0U);
    EXPECT_EQ(a.geometric(2.0), 0U);
    EXPECT_EQ(a.geometric(0.0), ~0ULL);
    EXPECT_EQ(a.geometric(-0.5), ~0ULL);
    EXPECT_EQ(a.next(), ref.next());  // the stream did not move
}

TEST(Rng, GeometricGapAtCertainSuccessIsZero) {
    // p = 1 hoists to log1m = -inf: every gap is 0, one draw each.
    const double log1m = std::log1p(-1.0);
    const ccap::util::GeometricTable table(log1m, 16);
    Rng a(21), ref(21);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(ccap::util::geometric_gap_of_bits(a.next() >> 11, log1m), 0U);
        EXPECT_EQ(table.draw(a), 0U);
    }
    for (int i = 0; i < 200; ++i) (void)ref.uniform();
    EXPECT_EQ(a.next(), ref.next());
}

TEST(Rng, GeometricSaturatesForTinyP) {
    // log(1 - U) / log1p(-p) exceeds 1e280 here: past 2^64 the draw
    // saturates to "never" instead of an out-of-range conversion.
    Rng rng(22);
    for (int i = 0; i < 1000; ++i) ASSERT_EQ(rng.geometric(1e-300), ~0ULL) << "draw " << i;
    // At this log1m the quotients straddle 2^63 and 2^64: those in
    // [2^63, 2^64) are integers and kept exactly, the rest as above.
    const double log1m = -1.0 / 0x1.8p63;
    Rng b(23), ref(23);
    for (int i = 0; i < 1000; ++i) {
        const double x = std::log(1.0 - ref.uniform()) / log1m;
        const std::uint64_t want = x >= 0x1p64 ? ~0ULL : static_cast<std::uint64_t>(std::floor(x));
        ASSERT_EQ(ccap::util::geometric_gap_of_bits(b.next() >> 11, log1m), want)
            << "draw " << i;
    }
}

// The first 53-bit draw whose gap reaches k, by bisection (2^53 if none).
std::uint64_t first_bits_with_gap(std::uint64_t k, double log1m) {
    std::uint64_t lo = 0, hi = std::uint64_t{1} << 53;
    while (lo < hi) {
        const std::uint64_t mid = lo + (hi - lo) / 2;
        if (ccap::util::geometric_gap_of_bits(mid, log1m) >= k)
            hi = mid;
        else
            lo = mid + 1;
    }
    return lo;
}

constexpr std::array<double, 5> kTableProbs = {0.06875, 0.5, 1.0, 1e-3, 1e-12};
constexpr std::array<std::uint32_t, 3> kTableCaps = {1, 100, 1024};

TEST(GeometricTable, MatchesTheFormulaAroundEveryStep) {
    constexpr std::uint64_t kEnd = std::uint64_t{1} << 53;
    for (const double p : kTableProbs) {
        const double log1m = std::log1p(-p);
        for (const std::uint32_t cap : kTableCaps) {
            SCOPED_TRACE("p=" + std::to_string(p) + " cap " + std::to_string(cap));
            const ccap::util::GeometricTable table(log1m, cap);
            const auto check = [&](std::uint64_t bits) {
                ASSERT_EQ(table.gap(bits), ccap::util::geometric_gap_of_bits(bits, log1m))
                    << "bits " << bits;
            };
            // 64 draws either side of each step point, one past the cap
            // included (its upper side takes the formula) ...
            for (std::uint64_t k = 1; k <= std::uint64_t{cap} + 1; ++k) {
                const std::uint64_t step = first_bits_with_gap(k, log1m);
                if (step == kEnd) break;
                const std::uint64_t from = step < 64 ? 0 : step - 64;
                const std::uint64_t to = std::min(step + 64, kEnd - 1);
                for (std::uint64_t bits = from; bits <= to; ++bits) check(bits);
            }
            // ... either side of every guide-bucket edge, and the last draw.
            for (std::uint64_t b = 0; b < 4096; ++b) {
                const std::uint64_t edge = b << 41;
                if (edge > 0) check(edge - 1);
                check(edge);
            }
            check(kEnd - 1);
        }
    }
}

TEST(GeometricTable, DrawsTheSameGapsAsTheFormula) {
    constexpr int kDraws = 1'000'000;
    for (const double p : kTableProbs) {
        const double log1m = std::log1p(-p);
        for (const std::uint32_t cap : kTableCaps) {
            SCOPED_TRACE("p=" + std::to_string(p) + " cap " + std::to_string(cap));
            const ccap::util::GeometricTable table(log1m, cap);
            Rng a(31), b(31);
            int past_cap = 0;
            for (int i = 0; i < kDraws; ++i) {
                const std::uint64_t want =
                    ccap::util::geometric_gap_of_bits(b.next() >> 11, log1m);
                ASSERT_EQ(table.draw(a), want) << "draw " << i;
                past_cap += want >= cap;
            }
            EXPECT_EQ(a.next(), b.next());  // one draw per gap, p = 1 included
            if (p == 1.0) {
                EXPECT_EQ(past_cap, 0);
            } else if (p == 1e-3 || p == 1e-12) {
                // The formula answers every gap past the table's last step.
                EXPECT_GT(past_cap, kDraws / 4);
            }
        }
    }
}

TEST(Rng, NormalMoments) {
    Rng rng(18);
    double sum = 0.0, sq = 0.0;
    constexpr int kN = 100000;
    for (int i = 0; i < kN; ++i) {
        const double x = rng.normal();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / kN, 0.0, 0.02);
    EXPECT_NEAR(sq / kN, 1.0, 0.03);
}

TEST(Rng, ShuffleIsPermutation) {
    Rng rng(19);
    std::vector<int> v = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ShuffleActuallyMoves) {
    Rng rng(20);
    std::vector<int> v(100);
    for (int i = 0; i < 100; ++i) v[i] = i;
    const auto before = v;
    rng.shuffle(v);
    EXPECT_NE(v, before);
}

TEST(Rng, SplitMix64KnownValue) {
    // Reference value from the SplitMix64 definition with state 0.
    std::uint64_t state = 0;
    EXPECT_EQ(ccap::util::splitmix64(state), 0xE220A8397B1DCDAFULL);
}

}  // namespace
