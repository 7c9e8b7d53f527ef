// Integration: coded transmission over the Definition-1 channel — the
// test-suite mirror of bench E5's "unsynchronized communication is possible
// but slow" claim, plus cross-layer consistency between the core channel
// and the info-layer drift model.
#include <gtest/gtest.h>

#include "ccap/coding/lt_code.hpp"
#include "ccap/coding/marker_code.hpp"
#include "ccap/coding/stack_decoder.hpp"
#include "ccap/coding/vt_code.hpp"
#include "ccap/coding/watermark.hpp"
#include "ccap/core/erasure_channel.hpp"
#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/info/deletion_bounds.hpp"

namespace {

using namespace ccap;
using coding::Bits;

/// Adapter: run bit streams through the core channel (which matches the
/// drift model used by the decoders).
Bits through_core_channel(const Bits& tx, const core::DiChannelParams& p, std::uint64_t seed) {
    core::DeletionInsertionChannel ch(p, seed);
    std::vector<std::uint32_t> syms(tx.begin(), tx.end());
    const auto t = ch.transduce(syms);
    Bits rx;
    rx.reserve(t.output.size());
    for (std::uint32_t s : t.output) rx.push_back(static_cast<std::uint8_t>(s));
    return rx;
}

TEST(CrossLayer, CoreChannelMatchesDriftModelStatistics) {
    // The core DI channel and the info-layer drift simulator implement the
    // same Definition-1 model: compare output-length statistics.
    const core::DiChannelParams p{0.1, 0.1, 0.0, 1};
    info::DriftParams dp{0.1, 0.1, 0.0, 2, 48, 10};
    util::Rng rng(41);
    const Bits tx = coding::random_bits(4000, 41);

    const Bits via_core = through_core_channel(tx, p, 42);
    const std::vector<std::uint8_t> via_drift = info::simulate_drift_channel(tx, dp, rng);
    // Expected length ratio: (1 - p_d) / (1 - p_i) of transmitted length.
    const double expect = (1.0 - p.p_d) / (1.0 - p.p_i);
    EXPECT_NEAR(static_cast<double>(via_core.size()) / tx.size(), expect, 0.05);
    EXPECT_NEAR(static_cast<double>(via_drift.size()) / tx.size(), expect, 0.05);
}

TEST(UnsyncCoding, VtBlocksSurviveSparseDeletions) {
    // Frame-by-frame VT(16) transmission where at most one deletion hits
    // most frames at a low deletion rate.
    const coding::VtCode vt(16, 0);
    util::Rng rng(43);
    std::size_t decoded_frames = 0, total_frames = 60;
    for (std::size_t f = 0; f < total_frames; ++f) {
        const Bits info = coding::random_bits(vt.data_bits(), 100 + f);
        Bits word = vt.encode(info);
        // Channel: delete exactly one bit in half the frames.
        if (f % 2 == 0) word.erase(word.begin() + static_cast<long>(rng.uniform_below(word.size())));
        const auto res = vt.decode(word);
        if (res.status == coding::VtStatus::ok && res.info == info) ++decoded_frames;
    }
    EXPECT_EQ(decoded_frames, total_frames);
}

TEST(UnsyncCoding, WatermarkOverCoreChannel) {
    coding::WatermarkParams wp;
    wp.bits_per_symbol = 4;
    wp.chunk_bits = 6;
    wp.num_symbols = 48;
    wp.num_checks = 16;
    const coding::WatermarkCode code(wp);

    const core::DiChannelParams p{0.005, 0.005, 0.0, 1};
    const info::DriftParams dp{0.005, 0.005, 0.0, 2, 48, 10};
    int exact = 0;
    constexpr int kTrials = 5;
    for (int trial = 0; trial < kTrials; ++trial) {
        const Bits info = coding::random_bits(code.info_bits(), 500 + trial);
        const Bits tx = code.encode(info);
        const Bits rx = through_core_channel(tx, p, 600 + trial);
        const auto res = code.decode(rx, dp);
        if (res.ldpc_converged && res.info == info) ++exact;
    }
    EXPECT_GE(exact, 4);
}

TEST(UnsyncCoding, AchievedRateFarBelowFeedbackBand) {
    // Section 4.1's punchline: reliable unsynchronized rates sit far below
    // what the feedback protocols achieve at the same channel parameters.
    coding::WatermarkParams wp;
    wp.bits_per_symbol = 4;
    wp.chunk_bits = 6;
    wp.num_symbols = 48;
    wp.num_checks = 16;
    const coding::WatermarkCode code(wp);
    const core::DiChannelParams p{0.01, 0.01, 0.0, 1};

    const double unsync_rate = code.rate();  // bits per channel bit, when it decodes
    const double feedback_rate = core::theorem5_lower_bound(p);
    EXPECT_LT(unsync_rate, feedback_rate);
    EXPECT_LT(unsync_rate, 0.6 * core::theorem1_upper_bound(p));
}

TEST(UnsyncCoding, MarkerPipelineOverCoreChannel) {
    coding::MarkerParams mp;
    mp.marker = {0, 1, 1};
    mp.period = 4;
    const coding::MarkerCode marker(mp);
    const coding::ConvolutionalCode outer({0b111, 0b101}, 3);
    const core::DiChannelParams p{0.015, 0.015, 0.0, 1};
    const info::DriftParams dp{0.015, 0.015, 0.0, 2, 32, 8};

    int exact = 0;
    constexpr int kTrials = 8;
    for (int trial = 0; trial < kTrials; ++trial) {
        const Bits info = coding::random_bits(40, 700 + trial);
        const Bits tx = marker.encode_with_outer(outer, info);
        const Bits rx = through_core_channel(tx, p, 800 + trial);
        if (marker.decode_with_outer(outer, rx, info.size(), dp) == info) ++exact;
    }
    EXPECT_GE(exact, 6);
}

TEST(UnsyncCoding, FountainOverErasureViewApproachesTheorem1) {
    // The constructive counterpart of Theorem 1: with the matched erasure
    // channel's location side information, an LT fountain code delivers the
    // source at a rate within its own overhead of N * P_t — no feedback.
    const core::DiChannelParams p{0.2, 0.0, 0.0, 2};
    core::DeletionInsertionChannel channel(p, 51);
    coding::LtParams lp;
    lp.k = 600;
    lp.seed = 52;
    const coding::LtCode code(lp);
    util::Rng rng(53);
    std::vector<std::uint32_t> source(lp.k);
    for (auto& v : source) v = static_cast<std::uint32_t>(rng.uniform_below(4));

    coding::LtDecoder decoder(code);
    std::uint64_t uses = 0, index = 0;
    while (!decoder.complete() && index < 8 * lp.k) {
        std::vector<std::uint32_t> batch(32);
        for (std::size_t j = 0; j < batch.size(); ++j)
            batch[j] = code.encode_symbol(index + j, source);
        const auto t = channel.transduce(batch, false);
        const auto view = core::erasure_view(t);
        uses += t.channel_uses;
        for (std::size_t j = 0; j < batch.size(); ++j)
            if (view.symbols[j]) (void)decoder.add_symbol(index + j, *view.symbols[j]);
        index += batch.size();
    }
    ASSERT_TRUE(decoder.complete());
    for (std::size_t i = 0; i < source.size(); ++i) EXPECT_EQ(*decoder.source()[i], source[i]);
    const double rate = 2.0 * static_cast<double>(lp.k) / static_cast<double>(uses);
    const double bound = core::theorem1_upper_bound(p);
    EXPECT_LT(rate, bound);        // never above the bound
    EXPECT_GT(rate, 0.7 * bound);  // within the fountain overhead of it
}

TEST(UnsyncCoding, StackDecoderComparableToMarkerPipeline) {
    // Two very different unsynchronized schemes (1969 sequential decoding
    // vs marker+Viterbi) should both survive mild indel rates end to end.
    const coding::ConvolutionalCode k5({0b10111, 0b11001}, 5);
    const info::DriftParams dp{0.01, 0.01, 0.0, 2, 32, 8};
    coding::StackDecoderParams sp;
    sp.p_d = 0.01;
    sp.p_i = 0.01;
    util::Rng rng(54);
    int exact = 0;
    constexpr int kTrials = 8;
    for (int t = 0; t < kTrials; ++t) {
        const Bits info = coding::random_bits(64, 900 + t);
        const auto rx = info::simulate_drift_channel(k5.encode(info), dp, rng);
        const auto res = coding::stack_decode(k5, rx, info.size(), sp);
        if (res.success && res.info == info) ++exact;
    }
    EXPECT_GE(exact, 6);
}

TEST(UnsyncCoding, NoFeedbackMiRateBracketsCodeRates) {
    // The achievable-rate estimate for the raw channel should exceed the
    // rate of the practical codes (codes are suboptimal), while remaining
    // below the Theorem-1 bound.
    util::Rng rng(44);
    info::DriftParams dp{0.02, 0.02, 0.0, 2, 48, 10};
    const auto est = info::iid_mutual_information_rate(dp, {128, 12}, rng);
    coding::WatermarkParams wp;
    wp.bits_per_symbol = 4;
    wp.chunk_bits = 6;
    wp.num_symbols = 48;
    wp.num_checks = 16;
    const coding::WatermarkCode code(wp);
    EXPECT_GT(est.rate + 2 * est.sem, code.rate());
    EXPECT_LT(est.rate, info::erasure_upper_bound(dp.p_d) + 0.02);
}

}  // namespace
