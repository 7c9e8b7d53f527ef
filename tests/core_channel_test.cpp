#include "ccap/core/deletion_insertion_channel.hpp"

#include <gtest/gtest.h>

#include "ccap/core/erasure_channel.hpp"

namespace {

using namespace ccap::core;

std::vector<std::uint32_t> message(std::size_t n, unsigned bits, std::uint64_t seed) {
    ccap::util::Rng rng(seed);
    std::vector<std::uint32_t> m(n);
    for (auto& s : m) s = static_cast<std::uint32_t>(rng.uniform_below(1ULL << bits));
    return m;
}

TEST(DiChannel, CleanChannelIsIdentity) {
    DeletionInsertionChannel ch({0.0, 0.0, 0.0, 1}, 1);
    const auto msg = message(100, 1, 1);
    const auto t = ch.transduce(msg);
    EXPECT_EQ(t.output, msg);
    EXPECT_EQ(t.channel_uses, 100U);
    EXPECT_EQ(t.events.size(), 100U);
}

TEST(DiChannel, UseOutcomesAreConsistent) {
    DeletionInsertionChannel ch({0.3, 0.3, 0.1, 2}, 2);
    for (int i = 0; i < 2000; ++i) {
        const auto out = ch.use(2);
        switch (out.kind) {
            case ChannelEvent::deletion:
                EXPECT_FALSE(out.delivered.has_value());
                EXPECT_TRUE(out.consumed);
                break;
            case ChannelEvent::insertion:
                EXPECT_TRUE(out.delivered.has_value());
                EXPECT_FALSE(out.consumed);
                EXPECT_LT(*out.delivered, 4U);
                break;
            case ChannelEvent::transmission:
                EXPECT_TRUE(out.delivered.has_value());
                EXPECT_TRUE(out.consumed);
                break;
        }
    }
}

TEST(DiChannel, UseRejectsOutOfAlphabetSymbol) {
    DeletionInsertionChannel ch({0.1, 0.1, 0.0, 1}, 3);
    EXPECT_THROW((void)ch.use(2), std::out_of_range);
}

TEST(DiChannel, EventRatesMatchParameters) {
    DeletionInsertionChannel ch({0.2, 0.1, 0.0, 1}, 4);
    const auto msg = message(20000, 1, 2);
    const auto t = ch.transduce(msg, /*trailing_insertions=*/false);
    std::size_t del = 0, ins = 0, trans = 0;
    for (const auto& e : t.events) {
        del += e.kind == ChannelEvent::deletion;
        ins += e.kind == ChannelEvent::insertion;
        trans += e.kind == ChannelEvent::transmission;
    }
    const double uses = static_cast<double>(t.channel_uses);
    EXPECT_NEAR(del / uses, 0.2, 0.01);
    EXPECT_NEAR(ins / uses, 0.1, 0.01);
    EXPECT_NEAR(trans / uses, 0.7, 0.01);
    EXPECT_EQ(del + trans, msg.size());  // each message symbol consumed once
}

TEST(DiChannel, SubstitutionRateMatches) {
    DeletionInsertionChannel ch({0.0, 0.0, 0.25, 3}, 5);
    const auto msg = message(8000, 3, 3);
    const auto t = ch.transduce(msg);
    std::size_t subst = 0;
    for (const auto& e : t.events) subst += e.substituted;
    EXPECT_NEAR(static_cast<double>(subst) / msg.size(), 0.25, 0.02);
}

TEST(DiChannel, DeterministicForSeed) {
    const auto msg = message(500, 2, 6);
    DeletionInsertionChannel a({0.1, 0.1, 0.05, 2}, 7);
    DeletionInsertionChannel b({0.1, 0.1, 0.05, 2}, 7);
    EXPECT_EQ(a.transduce(msg).output, b.transduce(msg).output);
}

TEST(DiChannel, DeletionOnlyOutputIsSubsequence) {
    DeletionInsertionChannel ch({0.3, 0.0, 0.0, 1}, 8);
    const auto msg = message(200, 1, 9);
    const auto t = ch.transduce(msg);
    std::size_t i = 0;
    for (std::uint32_t s : t.output) {
        while (i < msg.size() && msg[i] != s) ++i;
        ASSERT_LT(i, msg.size());
        ++i;
    }
}

TEST(DiChannel, InvalidParamsThrowAtConstruction) {
    EXPECT_THROW(DeletionInsertionChannel({0.7, 0.7, 0.0, 1}, 1), std::domain_error);
}

TEST(ErasureView, MatchesGroundTruth) {
    DeletionInsertionChannel ch({0.25, 0.15, 0.0, 1}, 10);
    const auto msg = message(5000, 1, 11);
    const auto t = ch.transduce(msg);
    const ErasureView view = erasure_view(t);
    // One slot per message symbol (deletions become flagged erasures).
    EXPECT_EQ(view.symbols.size(), msg.size());
    // Inserted symbols are discarded, not mixed into message positions.
    std::size_t inserted = 0;
    for (const auto& e : t.events) inserted += e.kind == ChannelEvent::insertion;
    EXPECT_EQ(view.insertions_discarded, inserted);
    // Non-erased slots carry the original symbols (noiseless channel).
    for (std::size_t i = 0; i < msg.size(); ++i)
        if (view.symbols[i]) {
            EXPECT_EQ(*view.symbols[i], msg[i]);
        }
}

TEST(ErasureView, ErasureRateTracksPd) {
    DeletionInsertionChannel ch({0.2, 0.0, 0.0, 1}, 12);
    const auto msg = message(20000, 1, 13);
    const ErasureView view = erasure_view(ch.transduce(msg));
    EXPECT_NEAR(static_cast<double>(view.erasures()) / msg.size(), 0.2, 0.01);
}

TEST(ErasureView, InformationBits) {
    DeletionInsertionChannel ch({0.5, 0.0, 0.0, 4}, 14);
    const auto msg = message(1000, 4, 15);
    const ErasureView view = erasure_view(ch.transduce(msg));
    const double bits = erasure_view_information_bits(view, 4);
    // About half the symbols survive, each carrying 4 bits.
    EXPECT_NEAR(bits / (1000.0 * 4.0), 0.5, 0.05);
    EXPECT_THROW((void)erasure_view_information_bits(view, 0), std::invalid_argument);
}

TEST(ErasureView, CleanChannelNoErasures) {
    DeletionInsertionChannel ch({0.0, 0.0, 0.0, 1}, 16);
    const auto msg = message(50, 1, 17);
    const ErasureView view = erasure_view(ch.transduce(msg));
    EXPECT_EQ(view.erasures(), 0U);
    EXPECT_EQ(view.insertions_discarded, 0U);
}

}  // namespace
