#include "ccap/util/stats.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "ccap/util/rng.hpp"

namespace {

using ccap::util::RunningStats;

TEST(RunningStats, EmptyIsZero) {
    RunningStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(RunningStats, MeanAndVariance) {
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(RunningStats, SingleSampleVarianceZero) {
    RunningStats s;
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
}

using ccap::util::CompensatedStats;

TEST(CompensatedStats, EmptyAndSingleSample) {
    CompensatedStats s;
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sem(), 0.0);
    s.add(3.0);
    EXPECT_DOUBLE_EQ(s.mean(), 3.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

TEST(CompensatedStats, MatchesWelfordOnBenignData) {
    CompensatedStats c;
    RunningStats w;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        c.add(x);
        w.add(x);
    }
    EXPECT_DOUBLE_EQ(c.mean(), 5.0);
    EXPECT_DOUBLE_EQ(c.mean(), w.mean());
    EXPECT_NEAR(c.variance(), w.variance(), 1e-14);
    EXPECT_NEAR(c.sem(), w.sem(), 1e-14);
}

// The adversarial regime the accumulator exists for: a tiny spread riding
// on a huge mean. Power-of-two constants keep {M - d, M, M + d} exactly
// representable (M = 2^30 needs 31 mantissa bits, the offset reaches down
// to 2^-20 — 51 bits total, inside a double's 53), so the exact sample
// variance is d^2 on the nose. A naive sum-of-squares fold loses it
// entirely: M^2 = 2^60 swallows d^2 = 2^-40 by a factor of 2^100. The
// shifted compensated fold must recover it exactly.
TEST(CompensatedStats, AdversarialMagnitudesKeepVariance) {
    const double M = 1073741824.0;            // 2^30
    const double d = 9.5367431640625e-07;     // 2^-20
    CompensatedStats s;
    for (double x : {M - d, M, M + d}) s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), M);
    EXPECT_DOUBLE_EQ(s.variance(), d * d);
    EXPECT_DOUBLE_EQ(s.sem(), d / std::sqrt(3.0));
}

// Larger adversarial stream with an analytic answer: half the samples at
// M, half at M + d (both exactly representable at M = 2^42, d = 2^-9), so
// the unbiased variance is d^2 * n / (4 * (n - 1)) and the mean M + d/2 —
// both exact in the shifted fold's power-of-two arithmetic.
TEST(CompensatedStats, LargeShiftedAlternatingStream) {
    const double M = 4398046511104.0;  // 2^42
    const double d = 0.001953125;      // 2^-9
    const int n = 4096;
    CompensatedStats s;
    for (int i = 0; i < n; ++i) s.add(M + (i % 2 ? d : 0.0));
    const double expected_var = d * d * n / (4.0 * (n - 1));
    EXPECT_DOUBLE_EQ(s.mean(), M + d / 2.0);
    EXPECT_NEAR(s.variance(), expected_var, 1e-12 * expected_var);
}

// The adaptive MC driver's determinism rests on the fold being a pure
// function of the sample sequence: two accumulators fed the same order
// must agree bit for bit, while a different order may differ (FP addition
// is not associative) — which is exactly why the estimators pin the fold
// to block order.
TEST(CompensatedStats, FoldIsDeterministicGivenOrder) {
    std::vector<double> xs;
    ccap::util::Rng rng(99);
    for (int i = 0; i < 257; ++i) xs.push_back(1e6 + rng.uniform() * 1e-4);
    CompensatedStats a, b;
    for (double x : xs) a.add(x);
    for (double x : xs) b.add(x);
    // Bit-identical, not approximately equal.
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.variance(), b.variance());
    EXPECT_EQ(a.sem(), b.sem());
}

TEST(CompensatedStats, VarianceNeverNegative) {
    CompensatedStats s;
    // Identical huge samples: any cancellation residue must clamp to 0.
    for (int i = 0; i < 64; ++i) s.add(3.141592653589793e15);
    EXPECT_GE(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.sem(), 0.0);
}

}  // namespace
