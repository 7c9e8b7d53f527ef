#include "ccap/info/deletion_bounds.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ccap/info/entropy.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Rng;
using Bits = std::vector<std::uint8_t>;

TEST(ErasureUpperBound, Values) {
    EXPECT_DOUBLE_EQ(erasure_upper_bound(0.0), 1.0);
    EXPECT_DOUBLE_EQ(erasure_upper_bound(0.25), 0.75);
    EXPECT_DOUBLE_EQ(erasure_upper_bound(0.25, 4), 3.0);
    EXPECT_THROW((void)erasure_upper_bound(1.5), std::domain_error);
    EXPECT_THROW((void)erasure_upper_bound(0.5, 0), std::invalid_argument);
}

TEST(GallagerBound, Values) {
    EXPECT_DOUBLE_EQ(gallager_deletion_lower_bound(0.0), 1.0);
    EXPECT_DOUBLE_EQ(gallager_deletion_lower_bound(0.5), 0.0);
    EXPECT_NEAR(gallager_deletion_lower_bound(0.1), 1.0 - binary_entropy(0.1), 1e-12);
}

TEST(GallagerBound, BelowErasureBound) {
    for (double p = 0.0; p <= 1.0; p += 0.05)
        EXPECT_LE(gallager_deletion_lower_bound(p), erasure_upper_bound(p) + 1e-12);
}

TEST(SmallPExpansion, Endpoints) {
    EXPECT_DOUBLE_EQ(small_p_deletion_expansion(0.0), 1.0);
    // Monotone decreasing in the small-p regime.
    EXPECT_GT(small_p_deletion_expansion(0.01), small_p_deletion_expansion(0.05));
    EXPECT_GE(small_p_deletion_expansion(0.9), 0.0);  // clamped
}

TEST(SmallPExpansion, TighterThanGallagerForSmallP) {
    // For small p the true capacity ~ 1 + p log p >> 1 - H(p); the expansion
    // should sit above the Gallager iid bound.
    for (double p : {0.001, 0.005, 0.01, 0.02}) {
        EXPECT_GT(small_p_deletion_expansion(p), gallager_deletion_lower_bound(p));
        EXPECT_LT(small_p_deletion_expansion(p), erasure_upper_bound(p));
    }
}

TEST(SimulateDriftChannel, CleanChannelIsIdentity) {
    Rng rng(1);
    DriftParams p{0.0, 0.0, 0.0, 2, 16, 8};
    const Bits tx = {0, 1, 1, 0, 1, 0};
    EXPECT_EQ(simulate_drift_channel(tx, p, rng), tx);
}

TEST(SimulateDriftChannel, DeletionOnlyYieldsSubsequence) {
    Rng rng(2);
    DriftParams p{0.3, 0.0, 0.0, 2, 16, 8};
    const Bits tx = {0, 1, 0, 1, 0, 1, 0, 1, 1, 1};
    const Bits rx = simulate_drift_channel(tx, p, rng);
    EXPECT_LE(rx.size(), tx.size());
    // Verify subsequence property.
    std::size_t i = 0;
    for (std::uint8_t b : rx) {
        while (i < tx.size() && tx[i] != b) ++i;
        ASSERT_LT(i, tx.size());
        ++i;
    }
}

TEST(SimulateDriftChannel, DeletionRateStatistics) {
    Rng rng(3);
    DriftParams p{0.2, 0.0, 0.0, 2, 16, 8};
    const Bits tx(4000, 1);
    const Bits rx = simulate_drift_channel(tx, p, rng);
    EXPECT_NEAR(static_cast<double>(rx.size()) / tx.size(), 0.8, 0.02);
}

TEST(SimulateDriftChannel, InsertionRateStatistics) {
    Rng rng(4);
    DriftParams p{0.0, 0.2, 0.0, 2, 16, 8};
    const Bits tx(4000, 1);
    const Bits rx = simulate_drift_channel(tx, p, rng);
    // Insertions per transmitted symbol: p_i/(1-p_i) = 0.25.
    EXPECT_NEAR(static_cast<double>(rx.size()) / tx.size(), 1.25, 0.03);
}

TEST(SimulateDriftChannel, SubstitutionStatistics) {
    Rng rng(5);
    DriftParams p{0.0, 0.0, 0.15, 2, 16, 8};
    const Bits tx(4000, 0);
    const Bits rx = simulate_drift_channel(tx, p, rng);
    ASSERT_EQ(rx.size(), tx.size());
    double flips = 0;
    for (std::uint8_t b : rx) flips += b;
    EXPECT_NEAR(flips / static_cast<double>(tx.size()), 0.15, 0.02);
}

TEST(SimulateDriftChannel, Deterministic) {
    DriftParams p{0.1, 0.1, 0.05, 2, 16, 8};
    const Bits tx = {0, 1, 1, 0, 1, 0, 0, 1};
    Rng a(9), b(9);
    EXPECT_EQ(simulate_drift_channel(tx, p, a), simulate_drift_channel(tx, p, b));
}

TEST(SimulateDriftChannel, RejectsBadSymbols) {
    Rng rng(6);
    DriftParams p{0.1, 0.0, 0.0, 2, 16, 8};
    const Bits bad = {0, 3};
    EXPECT_THROW((void)simulate_drift_channel(bad, p, rng), std::out_of_range);
}

TEST(IidMiRate, CleanChannelIsOneBit) {
    Rng rng(7);
    DriftParams p{0.0, 0.0, 0.0, 2, 24, 8};
    const MiEstimate est = iid_mutual_information_rate(p, {64, 8}, rng);
    EXPECT_NEAR(est.rate, 1.0, 1e-9);
}

TEST(IidMiRate, BoundedByErasureBound) {
    Rng rng(8);
    DriftParams p{0.15, 0.0, 0.0, 2, 32, 8};
    const MiEstimate est = iid_mutual_information_rate(p, {96, 24}, rng);
    EXPECT_LT(est.rate, erasure_upper_bound(p.p_d) + 0.03);
    EXPECT_GT(est.rate, 0.3);
}

TEST(IidMiRate, AboveGallagerApproximately) {
    // The Monte-Carlo rate should (statistically) dominate the iid
    // analytic lower bound at moderate deletion rates.
    Rng rng(9);
    DriftParams p{0.1, 0.0, 0.0, 2, 32, 8};
    const MiEstimate est = iid_mutual_information_rate(p, {96, 24}, rng);
    EXPECT_GT(est.rate + 3 * est.sem + 0.05, gallager_deletion_lower_bound(0.1));
}

TEST(IidMiRate, DegradesWithDeletionRate) {
    Rng rng(10);
    DriftParams lo{0.05, 0.0, 0.0, 2, 32, 8};
    DriftParams hi{0.30, 0.0, 0.0, 2, 32, 8};
    const double r_lo = iid_mutual_information_rate(lo, {64, 16}, rng).rate;
    const double r_hi = iid_mutual_information_rate(hi, {64, 16}, rng).rate;
    EXPECT_GT(r_lo, r_hi);
}

TEST(IidMiRate, ValidatesArguments) {
    Rng rng(11);
    DriftParams p{0.1, 0.0, 0.0, 2, 16, 8};
    EXPECT_THROW((void)iid_mutual_information_rate(p, {0, 4}, rng), std::invalid_argument);
    EXPECT_THROW((void)iid_mutual_information_rate(p, {16, 0}, rng), std::invalid_argument);
}

}  // namespace
