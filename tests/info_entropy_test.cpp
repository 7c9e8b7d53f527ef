#include "ccap/info/entropy.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using namespace ccap::info;
using ccap::util::Matrix;

TEST(BinaryEntropy, KnownValues) {
    EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
    EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
    EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
    EXPECT_NEAR(binary_entropy(0.11), 0.4999, 5e-4);  // H(0.11) ~ 0.5
}

TEST(BinaryEntropy, Symmetry) {
    for (double p : {0.1, 0.25, 0.4}) EXPECT_DOUBLE_EQ(binary_entropy(p), binary_entropy(1 - p));
}

TEST(BinaryEntropy, OutOfRangeThrows) {
    EXPECT_THROW((void)binary_entropy(-0.01), std::domain_error);
    EXPECT_THROW((void)binary_entropy(1.01), std::domain_error);
}

TEST(MutualInformation, IndependentIsZero) {
    Matrix joint{{0.25, 0.25}, {0.25, 0.25}};
    EXPECT_NEAR(mutual_information(joint), 0.0, 1e-12);
}

TEST(MutualInformation, PerfectlyCorrelatedIsEntropy) {
    Matrix joint{{0.5, 0.0}, {0.0, 0.5}};
    EXPECT_NEAR(mutual_information(joint), 1.0, 1e-12);
}

TEST(MutualInformation, UnnormalizedJointThrows) {
    Matrix joint{{0.5, 0.5}, {0.5, 0.5}};
    EXPECT_THROW((void)mutual_information(joint), std::domain_error);
}

TEST(MutualInformation, InputChannelForm) {
    // BSC(0.0) with uniform input: I = 1 bit.
    Matrix channel{{1.0, 0.0}, {0.0, 1.0}};
    const std::vector<double> input = {0.5, 0.5};
    EXPECT_NEAR(mutual_information(input, channel), 1.0, 1e-12);
}

TEST(MutualInformation, InputChannelMatchesJointForm) {
    Matrix channel{{0.9, 0.1}, {0.2, 0.8}};
    const std::vector<double> input = {0.3, 0.7};
    Matrix joint(2, 2);
    for (int x = 0; x < 2; ++x)
        for (int y = 0; y < 2; ++y) joint(x, y) = input[x] * channel(x, y);
    EXPECT_NEAR(mutual_information(input, channel), mutual_information(joint), 1e-12);
}

TEST(MutualInformation, NonStochasticChannelThrows) {
    Matrix channel{{0.9, 0.2}, {0.2, 0.8}};
    const std::vector<double> input = {0.5, 0.5};
    EXPECT_THROW((void)mutual_information(input, channel), std::domain_error);
}

TEST(MarySymmetric, PenaltyAndCapacity) {
    // Binary case (m=2) reduces to BSC.
    EXPECT_NEAR(mary_symmetric_capacity(0.11, 2), 1.0 - binary_entropy(0.11), 1e-12);
    // Zero error: capacity = log2 m.
    EXPECT_NEAR(mary_symmetric_capacity(0.0, 16), 4.0, 1e-12);
    // Fully scrambled m-ary channel has zero capacity at p = (m-1)/m.
    EXPECT_NEAR(mary_symmetric_capacity(0.75, 4), 0.0, 1e-12);
}

TEST(MarySymmetric, InvalidM) {
    EXPECT_THROW((void)mary_symmetric_entropy_penalty(0.1, 1), std::invalid_argument);
}

TEST(Xlog2x, Conventions) {
    EXPECT_DOUBLE_EQ(xlog2x(0.0), 0.0);
    EXPECT_DOUBLE_EQ(xlog2x(1.0), 0.0);
    EXPECT_DOUBLE_EQ(xlog2x(2.0), 2.0);
}

}  // namespace
