#include "ccap/coding/bitvec.hpp"

#include <gtest/gtest.h>

namespace {

using namespace ccap::coding;

TEST(Bitvec, CheckBitsRejectsNonBits) {
    const Bits bad = {0, 1, 2};
    EXPECT_THROW(check_bits(bad), std::domain_error);
    const Bits good = {0, 1, 1, 0};
    EXPECT_NO_THROW(check_bits(good));
}

TEST(Bitvec, BitsFromUintRoundTrip) {
    for (std::uint64_t v : {0ULL, 1ULL, 5ULL, 255ULL, 0xDEADBEEFULL}) {
        const Bits b = bits_from_uint(v, 32);
        EXPECT_EQ(uint_from_bits(b), v);
    }
}

TEST(Bitvec, BitsFromUintWidth) {
    const Bits b = bits_from_uint(0b101, 3);
    EXPECT_EQ(to_string(b), "101");
    EXPECT_THROW((void)bits_from_uint(1, 65), std::invalid_argument);
}

TEST(Bitvec, UintFromBitsValidation) {
    const Bits too_long(65, 0);
    EXPECT_THROW((void)uint_from_bits(too_long), std::invalid_argument);
}

TEST(Bitvec, StringRoundTrip) {
    const std::string s = "011010";
    EXPECT_EQ(to_string(bits_from_string(s)), s);
    EXPECT_THROW((void)bits_from_string("01x"), std::invalid_argument);
}

TEST(Bitvec, HammingDistance) {
    const Bits a = bits_from_string("1010");
    const Bits b = bits_from_string("1001");
    EXPECT_EQ(hamming_distance(a, b), 2U);
    EXPECT_EQ(hamming_distance(a, a), 0U);
    const Bits c = bits_from_string("101");
    EXPECT_THROW((void)hamming_distance(a, c), std::invalid_argument);
}

TEST(Bitvec, XorBits) {
    const Bits a = bits_from_string("1100");
    const Bits b = bits_from_string("1010");
    EXPECT_EQ(to_string(xor_bits(a, b)), "0110");
    // Self-inverse.
    EXPECT_EQ(xor_bits(xor_bits(a, b), b), a);
}

TEST(Bitvec, RandomBitsDeterministicAndBalanced) {
    const Bits a = random_bits(10000, 77);
    const Bits b = random_bits(10000, 77);
    EXPECT_EQ(a, b);
    std::size_t ones = 0;
    for (auto bit : a) ones += bit;
    EXPECT_NEAR(static_cast<double>(ones) / a.size(), 0.5, 0.03);
    const Bits c = random_bits(10000, 78);
    EXPECT_NE(a, c);
}

TEST(Bitvec, EmptyInputs) {
    EXPECT_TRUE(to_string({}).empty());
    EXPECT_EQ(uint_from_bits({}), 0ULL);
}

}  // namespace
