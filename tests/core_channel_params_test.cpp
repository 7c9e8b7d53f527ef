#include "ccap/core/channel_params.hpp"

#include <gtest/gtest.h>

namespace {

using ccap::core::DiChannelParams;

TEST(DiChannelParams, DefaultsAreSynchronousNoiseless) {
    DiChannelParams p;
    EXPECT_NO_THROW(p.validate());
    EXPECT_DOUBLE_EQ(p.p_t(), 1.0);
}

TEST(DiChannelParams, TransmissionProbabilityDerived) {
    DiChannelParams p{0.2, 0.3, 0.0, 1};
    EXPECT_DOUBLE_EQ(p.p_t(), 0.5);
}

TEST(DiChannelParams, AlphabetSize) {
    EXPECT_EQ((DiChannelParams{0, 0, 0, 1}).alphabet(), 2U);
    EXPECT_EQ((DiChannelParams{0, 0, 0, 4}).alphabet(), 16U);
    EXPECT_EQ((DiChannelParams{0, 0, 0, 16}).alphabet(), 65536U);
}

TEST(DiChannelParams, ValidationRejections) {
    EXPECT_THROW((DiChannelParams{-0.1, 0, 0, 1}).validate(), std::domain_error);
    EXPECT_THROW((DiChannelParams{0, -0.1, 0, 1}).validate(), std::domain_error);
    EXPECT_THROW((DiChannelParams{0, 0, 1.5, 1}).validate(), std::domain_error);
    EXPECT_THROW((DiChannelParams{0.6, 0.6, 0, 1}).validate(), std::domain_error);
    EXPECT_THROW((DiChannelParams{0, 0, 0, 0}).validate(), std::domain_error);
    EXPECT_THROW((DiChannelParams{0, 0, 0, 17}).validate(), std::domain_error);
}

TEST(DiChannelParams, BoundaryValuesAccepted) {
    EXPECT_NO_THROW((DiChannelParams{1.0, 0.0, 0.0, 1}).validate());
    EXPECT_NO_THROW((DiChannelParams{0.0, 1.0, 1.0, 16}).validate());
    EXPECT_NO_THROW((DiChannelParams{0.5, 0.5, 0.0, 1}).validate());
}

TEST(DiChannelParams, ToStringFormat) {
    DiChannelParams p{0.1, 0.05, 0.0, 2};
    const std::string s = p.to_string();
    EXPECT_NE(s.find("p_d=0.1000"), std::string::npos);
    EXPECT_NE(s.find("N=2"), std::string::npos);
}

TEST(DiChannelParams, Equality) {
    DiChannelParams a{0.1, 0.2, 0.0, 1};
    DiChannelParams b{0.1, 0.2, 0.0, 1};
    DiChannelParams c{0.1, 0.2, 0.0, 2};
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
}

}  // namespace
