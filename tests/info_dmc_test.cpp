#include "ccap/info/dmc.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include <vector>

#include "ccap/info/entropy.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Matrix;

TEST(Dmc, RejectsNonStochastic) {
    Matrix bad{{0.5, 0.4}, {0.5, 0.5}};
    EXPECT_THROW((void)Dmc(bad), std::invalid_argument);
}

TEST(Dmc, RejectsEmpty) { EXPECT_THROW((void)Dmc(Matrix{}), std::invalid_argument); }

TEST(Dmc, Dimensions) {
    const Dmc bec = make_bec(0.3);
    EXPECT_EQ(bec.matrix().rows(), 2U);
    EXPECT_EQ(bec.matrix().cols(), 3U);
}

TEST(Builders, BscMatrix) {
    const Dmc c = make_bsc(0.2);
    EXPECT_NEAR(c.matrix()(0, 0), 0.8, 1e-12);
    EXPECT_NEAR(c.matrix()(1, 0), 0.2, 1e-12);
}

TEST(Builders, ZChannelStructure) {
    const Dmc z = make_z_channel(0.3);
    EXPECT_DOUBLE_EQ(z.matrix()(0, 0), 1.0);
    EXPECT_DOUBLE_EQ(z.matrix()(0, 1), 0.0);
    EXPECT_NEAR(z.matrix()(1, 0), 0.3, 1e-12);
}

TEST(Builders, MaryErasureStructure) {
    const Dmc e = make_mary_erasure(4, 0.25);
    EXPECT_EQ(e.matrix().cols(), 5U);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_NEAR(e.matrix()(i, i), 0.75, 1e-12);
        EXPECT_NEAR(e.matrix()(i, 4), 0.25, 1e-12);
    }
}

TEST(Builders, MarySymmetricRows) {
    const Dmc m = make_mary_symmetric(8, 0.21);
    EXPECT_TRUE(m.matrix().is_row_stochastic());
    EXPECT_NEAR(m.matrix()(3, 3), 0.79, 1e-12);
    EXPECT_NEAR(m.matrix()(3, 4), 0.03, 1e-12);
}

TEST(Builders, InvalidProbabilityThrows) {
    EXPECT_THROW((void)make_bsc(1.5), std::domain_error);
    EXPECT_THROW((void)make_bec(-0.1), std::domain_error);
    EXPECT_THROW((void)make_mary_symmetric(1, 0.1), std::invalid_argument);
}

TEST(ClosedForms, BscCapacity) {
    EXPECT_DOUBLE_EQ(bsc_capacity(0.0), 1.0);
    EXPECT_DOUBLE_EQ(bsc_capacity(0.5), 0.0);
    EXPECT_NEAR(bsc_capacity(0.11), 1.0 - binary_entropy(0.11), 1e-12);
}

TEST(ClosedForms, BecCapacity) {
    EXPECT_DOUBLE_EQ(bec_capacity(0.0), 1.0);
    EXPECT_DOUBLE_EQ(bec_capacity(1.0), 0.0);
    EXPECT_DOUBLE_EQ(bec_capacity(0.3), 0.7);
}

TEST(ClosedForms, ZChannelCapacity) {
    EXPECT_DOUBLE_EQ(z_channel_capacity(0.0), 1.0);
    EXPECT_DOUBLE_EQ(z_channel_capacity(1.0), 0.0);
    // Known value: C(0.5) = log2(5/4) = log2(1.25).
    EXPECT_NEAR(z_channel_capacity(0.5), std::log2(1.25), 1e-12);
}

TEST(ClosedForms, MaryErasureCapacity) {
    EXPECT_DOUBLE_EQ(mary_erasure_capacity(4, 0.5), 1.0);
    EXPECT_DOUBLE_EQ(mary_erasure_capacity(8, 0.0), 3.0);
}

}  // namespace
