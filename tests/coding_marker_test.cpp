#include "ccap/coding/marker_code.hpp"

#include <gtest/gtest.h>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::coding;
using ccap::info::DriftParams;
using ccap::info::simulate_drift_channel;
using ccap::util::Rng;

MarkerParams default_params() {
    MarkerParams p;
    p.marker = {0, 0, 1};
    p.period = 5;
    return p;
}

TEST(MarkerCode, ConstructionValidation) {
    MarkerParams p = default_params();
    p.marker.clear();
    EXPECT_THROW(MarkerCode{p}, std::invalid_argument);
    p = default_params();
    p.period = 0;
    EXPECT_THROW(MarkerCode{p}, std::invalid_argument);
    p = default_params();
    p.data_prior_one = 0.0;
    EXPECT_THROW(MarkerCode{p}, std::invalid_argument);
}

TEST(MarkerCode, EncodeLayout) {
    const MarkerCode code(default_params());
    const Bits data = bits_from_string("1111100000");
    // 5 data + marker + 5 data + marker.
    EXPECT_EQ(to_string(code.encode(data)), "11111" "001" "00000" "001");
    EXPECT_EQ(code.encoded_length(10), 16U);
}

TEST(MarkerCode, PartialLastGroupStillGetsMarker) {
    const MarkerCode code(default_params());
    EXPECT_EQ(code.encoded_length(7), 7 + 2 * 3U);
    const Bits data = bits_from_string("1010101");
    EXPECT_EQ(to_string(code.encode(data)), "10101" "001" "01" "001");
}

TEST(MarkerCode, CleanChannelDecodesExactly) {
    const MarkerCode code(default_params());
    const Bits data = random_bits(40, 2);
    const Bits tx = code.encode(data);
    const DriftParams clean{0.0, 0.0, 0.0, 2, 24, 8};
    const auto soft = code.decode_soft(tx, data.size(), clean);
    EXPECT_EQ(soft.hard, data);
    for (std::size_t i = 0; i < data.size(); ++i)
        EXPECT_NEAR(soft.posterior_one[i], data[i], 1e-9);
}

TEST(MarkerCode, TracksSingleDeletion) {
    const MarkerCode code(default_params());
    const Bits data = random_bits(30, 3);
    Bits tx = code.encode(data);
    tx.erase(tx.begin() + 12);  // delete one channel bit
    const DriftParams channel{0.05, 0.0, 0.0, 2, 24, 8};
    const auto soft = code.decode_soft(tx, data.size(), channel);
    // Most data bits should still be decided correctly.
    std::size_t errs = 0;
    for (std::size_t i = 0; i < data.size(); ++i) errs += soft.hard[i] != data[i];
    EXPECT_LE(errs, 3U);
}

TEST(MarkerCode, OuterCodePipelineRecoversUnderIndels) {
    MarkerParams mp;
    mp.marker = {0, 1, 1};
    mp.period = 4;
    const MarkerCode code(mp);
    const ConvolutionalCode outer({0b111, 0b101}, 3);
    const DriftParams channel{0.02, 0.02, 0.0, 2, 32, 8};
    Rng rng(5);

    int exact = 0;
    constexpr int kTrials = 10;
    for (int trial = 0; trial < kTrials; ++trial) {
        const Bits info = random_bits(48, 300 + trial);
        const Bits tx = code.encode_with_outer(outer, info);
        const Bits rx = simulate_drift_channel(tx, channel, rng);
        const Bits decoded = code.decode_with_outer(outer, rx, info.size(), channel);
        if (decoded == info) ++exact;
    }
    EXPECT_GE(exact, 7) << "marker+viterbi should survive 2% indel rates";
}

TEST(MarkerCode, PosteriorsAreProbabilities) {
    const MarkerCode code(default_params());
    const Bits data = random_bits(25, 6);
    const Bits tx = code.encode(data);
    const DriftParams channel{0.1, 0.1, 0.05, 2, 24, 8};
    Rng rng(7);
    const Bits rx = simulate_drift_channel(tx, channel, rng);
    const auto soft = code.decode_soft(rx, data.size(), channel);
    ASSERT_EQ(soft.posterior_one.size(), data.size());
    for (double p : soft.posterior_one) {
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
    }
}

TEST(MarkerCode, EmptyData) {
    const MarkerCode code(default_params());
    const Bits tx = code.encode({});
    EXPECT_EQ(tx.size(), default_params().marker.size());
    const DriftParams clean{0.0, 0.0, 0.0, 2, 24, 8};
    const auto soft = code.decode_soft(tx, 0, clean);
    EXPECT_TRUE(soft.hard.empty());
}

}  // namespace
