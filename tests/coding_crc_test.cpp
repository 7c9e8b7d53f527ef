#include "ccap/coding/crc.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccap::coding;

TEST(Crc16, DeterministicAndSensitive) {
    const Bits msg = bits_from_string("110100111010110");
    const std::uint16_t c = crc16(msg);
    EXPECT_EQ(crc16(msg), c);
    Bits flipped = msg;
    flipped[3] ^= 1;
    EXPECT_NE(crc16(flipped), c);
}

TEST(Crc16, DetectsEveryOneBitError) {
    const Bits msg = random_bits(128, 5);
    const std::uint16_t c = crc16(msg);
    for (std::size_t i = 0; i < msg.size(); ++i) {
        Bits corrupted = msg;
        corrupted[i] ^= 1;
        EXPECT_NE(crc16(corrupted), c) << "undetected flip at " << i;
    }
}

TEST(Crc16, DetectsAllTwoBitErrorsInWindow) {
    const Bits msg = random_bits(64, 6);
    const std::uint16_t c = crc16(msg);
    for (std::size_t i = 0; i < msg.size(); ++i)
        for (std::size_t j = i + 1; j < msg.size(); ++j) {
            Bits corrupted = msg;
            corrupted[i] ^= 1;
            corrupted[j] ^= 1;
            EXPECT_NE(crc16(corrupted), c);
        }
}

TEST(Crc16, AppendVerifyRoundTrip) {
    const Bits msg = random_bits(100, 7);
    const Bits framed = append_crc16(msg);
    EXPECT_EQ(framed.size(), msg.size() + 16);
    EXPECT_TRUE(verify_crc16(framed));
}

TEST(Crc16, VerifyRejectsCorruption) {
    const Bits framed = append_crc16(random_bits(50, 8));
    for (std::size_t i = 0; i < framed.size(); ++i) {
        Bits corrupted = framed;
        corrupted[i] ^= 1;
        EXPECT_FALSE(verify_crc16(corrupted)) << "at " << i;
    }
}

TEST(Crc16, VerifyRejectsShortInput) {
    const Bits short_input(15, 0);
    EXPECT_FALSE(verify_crc16(short_input));
}

TEST(Crc16, EmptyMessage) {
    const Bits empty;
    EXPECT_EQ(crc16(empty), 0xFFFF);  // init value untouched
    EXPECT_TRUE(verify_crc16(append_crc16(empty)));
}

TEST(Crc, RejectsNonBits) {
    const Bits bad = {0, 1, 7};
    EXPECT_THROW((void)crc16(bad), std::domain_error);
}

}  // namespace
