#include "ccap/coding/watermark.hpp"

#include <gtest/gtest.h>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::coding;
using ccap::info::DriftParams;
using ccap::info::simulate_drift_channel;
using ccap::util::Rng;

WatermarkParams small_params() {
    WatermarkParams p;
    p.bits_per_symbol = 4;   // GF(16)
    p.chunk_bits = 6;
    p.num_symbols = 48;
    p.num_checks = 16;
    p.watermark_seed = 0xACE1;
    p.ldpc_seed = 0xBEEF;
    return p;
}

TEST(SparseCodebook, LowestWeightFirst) {
    const auto book = sparse_codebook(16, 6);
    ASSERT_EQ(book.size(), 16U);
    // First entry is all-zero; all 6 weight-1 entries precede any weight-2.
    EXPECT_EQ(to_string(book[0]), "000000");
    for (int i = 1; i <= 6; ++i) {
        int weight = 0;
        for (auto b : book[i]) weight += b;
        EXPECT_EQ(weight, 1) << "entry " << i;
    }
    for (std::size_t i = 7; i < 16; ++i) {
        int weight = 0;
        for (auto b : book[i]) weight += b;
        EXPECT_EQ(weight, 2) << "entry " << i;
    }
}

TEST(SparseCodebook, Validation) {
    EXPECT_THROW((void)sparse_codebook(0, 6), std::invalid_argument);
    EXPECT_THROW((void)sparse_codebook(128, 6), std::invalid_argument);
    EXPECT_THROW((void)sparse_codebook(4, 0), std::invalid_argument);
}

TEST(Watermark, ConstructionAndRate) {
    const WatermarkCode code(small_params());
    EXPECT_EQ(code.info_bits(), (48U - 16U) * 4U);  // k = n - checks symbols, 4 bits each
    EXPECT_EQ(code.channel_bits(), 48U * 6U);
    EXPECT_NEAR(code.rate(), 128.0 / 288.0, 1e-12);
}

TEST(Watermark, ChunkBitsMustFitSymbols) {
    WatermarkParams p = small_params();
    p.chunk_bits = 3;
    EXPECT_THROW(WatermarkCode{p}, std::invalid_argument);
}

TEST(Watermark, EncodeDeterministicAndSized) {
    const WatermarkCode code(small_params());
    const Bits info = random_bits(code.info_bits(), 1);
    const Bits tx1 = code.encode(info);
    const Bits tx2 = code.encode(info);
    EXPECT_EQ(tx1, tx2);
    EXPECT_EQ(tx1.size(), code.channel_bits());
}

TEST(Watermark, EncodeWrongSizeThrows) {
    const WatermarkCode code(small_params());
    EXPECT_THROW((void)code.encode(Bits(3, 0)), std::invalid_argument);
}

TEST(Watermark, StreamResemblesWatermark) {
    // The transmitted stream should differ from the watermark only at the
    // sparse density (this is what makes drift tracking possible).
    const WatermarkCode code(small_params());
    const Bits info = random_bits(code.info_bits(), 2);
    const Bits tx = code.encode(info);
    const Bits wm = random_bits(code.channel_bits(), small_params().watermark_seed);
    const std::size_t diff = hamming_distance(tx, wm);
    const double density = static_cast<double>(diff) / tx.size();
    EXPECT_LT(density, 0.35);
}

TEST(Watermark, CleanChannelRoundTrip) {
    const WatermarkCode code(small_params());
    const Bits info = random_bits(code.info_bits(), 3);
    const Bits tx = code.encode(info);
    const DriftParams clean{0.0, 0.0, 0.0, 2, 32, 8};
    const auto res = code.decode(tx, clean);
    EXPECT_TRUE(res.ldpc_converged);
    EXPECT_EQ(res.info, info);
}

TEST(Watermark, SurvivesDeletionsAndInsertions) {
    const WatermarkCode code(small_params());
    const DriftParams channel{0.01, 0.01, 0.0, 2, 32, 8};
    Rng rng(9);
    int exact = 0;
    constexpr int kTrials = 6;
    for (int trial = 0; trial < kTrials; ++trial) {
        const Bits info = random_bits(code.info_bits(), 400 + trial);
        const Bits tx = code.encode(info);
        const Bits rx = simulate_drift_channel(tx, channel, rng);
        const auto res = code.decode(rx, channel);
        if (res.ldpc_converged && res.info == info) ++exact;
    }
    EXPECT_GE(exact, 4) << "watermark code should survive 1% indel rates";
}

TEST(Watermark, HeavyNoiseFailsGracefully) {
    const WatermarkCode code(small_params());
    const DriftParams channel{0.25, 0.25, 0.1, 2, 48, 10};
    Rng rng(10);
    const Bits info = random_bits(code.info_bits(), 5);
    const Bits tx = code.encode(info);
    const Bits rx = simulate_drift_channel(tx, channel, rng);
    const auto res = code.decode(rx, channel);
    // Must not crash; decoded info has the right size either way.
    EXPECT_EQ(res.info.size(), code.info_bits());
}

}  // namespace
