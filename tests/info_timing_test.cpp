#include "ccap/info/timing.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using namespace ccap::info;

TEST(TimingCapacity, EqualDurationsAreLogMOverT) {
    const std::vector<double> t2 = {1.0, 1.0};
    EXPECT_NEAR(timing_capacity(t2), 1.0, 1e-9);
    const std::vector<double> t4 = {2.0, 2.0, 2.0, 2.0};
    EXPECT_NEAR(timing_capacity(t4), 1.0, 1e-9);  // log2(4)/2
}

TEST(TimingCapacity, GoldenRatioCase) {
    // Durations {1,2}: root of x^-1 + x^-2 = 1 is the golden ratio.
    const std::vector<double> t = {1.0, 2.0};
    EXPECT_NEAR(timing_capacity(t), std::log2((1.0 + std::sqrt(5.0)) / 2.0), 1e-9);
}

TEST(TimingCapacity, MorseLikeAlphabet) {
    // Shannon's classic telegraphy flavour: more/longer symbols still give
    // a consistent characteristic-equation solution.
    const std::vector<double> t = {2.0, 4.0, 5.0, 7.0};
    const double c = timing_capacity(t);
    // Verify the root property directly: sum 2^{-c t_i} = 1.
    double s = 0.0;
    for (double ti : t) s += std::exp2(-c * ti);
    EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(TimingCapacity, DegenerateCases) {
    EXPECT_DOUBLE_EQ(timing_capacity({}), 0.0);
    const std::vector<double> one = {3.0};
    EXPECT_DOUBLE_EQ(timing_capacity(one), 0.0);
}

TEST(TimingCapacity, InvalidDurationThrows) {
    const std::vector<double> t = {1.0, 0.0};
    EXPECT_THROW((void)timing_capacity(t), std::domain_error);
}

TEST(TimingCapacity, ScalingLaw) {
    // Doubling all durations halves the capacity.
    const std::vector<double> t = {1.0, 3.0};
    const std::vector<double> t2 = {2.0, 6.0};
    EXPECT_NEAR(timing_capacity(t), 2.0 * timing_capacity(t2), 1e-9);
}

TEST(TimingCapacity, MoreSymbolsMoreCapacity) {
    const std::vector<double> t2 = {1.0, 1.0};
    const std::vector<double> t3 = {1.0, 1.0, 1.0};
    EXPECT_GT(timing_capacity(t3), timing_capacity(t2));
}

TEST(Stc, IsAliasForTimingCapacity) {
    const std::vector<double> t = {1.0, 2.0, 3.0};
    EXPECT_DOUBLE_EQ(stc_capacity(t), timing_capacity(t));
}

TEST(TimedZ, NoiselessEqualTimeIsOneBit) {
    const auto r = timed_z_capacity(0.0, 1.0, 1.0);
    EXPECT_TRUE(r.converged);
    EXPECT_NEAR(r.capacity_per_time, 1.0, 1e-6);
    EXPECT_NEAR(r.optimal_p1, 0.5, 1e-4);
}

TEST(TimedZ, ReducesToZChannelPerTime) {
    // Equal durations: capacity/time = C_Z(p)/t.
    const auto r = timed_z_capacity(0.5, 2.0, 2.0);
    EXPECT_NEAR(r.capacity_per_time, std::log2(1.25) / 2.0, 1e-6);
}

TEST(TimedZ, CompletelyNoisyIsZero) {
    const auto r = timed_z_capacity(1.0, 1.0, 1.0);
    EXPECT_DOUBLE_EQ(r.capacity_per_time, 0.0);
}

TEST(TimedZ, LongerOneSymbolLowersCapacity) {
    const auto fast = timed_z_capacity(0.1, 1.0, 1.0);
    const auto slow = timed_z_capacity(0.1, 1.0, 4.0);
    EXPECT_GT(fast.capacity_per_time, slow.capacity_per_time);
}

TEST(TimedZ, NoiseLowersCapacity) {
    const auto clean = timed_z_capacity(0.0, 1.0, 2.0);
    const auto noisy = timed_z_capacity(0.3, 1.0, 2.0);
    EXPECT_GT(clean.capacity_per_time, noisy.capacity_per_time);
}

TEST(TimedZ, InvalidArgumentsThrow) {
    EXPECT_THROW((void)timed_z_capacity(0.1, 0.0, 1.0), std::domain_error);
    EXPECT_THROW((void)timed_z_capacity(-0.1, 1.0, 1.0), std::domain_error);
    EXPECT_THROW((void)timed_z_capacity(1.1, 1.0, 1.0), std::domain_error);
}

}  // namespace
