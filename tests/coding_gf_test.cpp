#include "ccap/coding/gf.hpp"

#include <gtest/gtest.h>

#include <set>

namespace {

using ccap::coding::GaloisField;

TEST(GaloisField, ConstructionValidation) {
    EXPECT_THROW(GaloisField(0), std::invalid_argument);
    EXPECT_THROW(GaloisField(13), std::invalid_argument);
    EXPECT_NO_THROW(GaloisField(1));
    EXPECT_NO_THROW(GaloisField(12));
}

TEST(GaloisField, SizeIsPowerOfTwo) {
    EXPECT_EQ(GaloisField(4).size(), 16U);
    EXPECT_EQ(GaloisField(8).size(), 256U);
}

TEST(GaloisField, AdditionIsXor) {
    const GaloisField gf(4);
    EXPECT_EQ(gf.add(0b1010, 0b0110), 0b1100);
    EXPECT_EQ(gf.add(7, 7), 0);  // characteristic 2
    EXPECT_EQ(gf.sub(5, 3), gf.add(5, 3));
}

TEST(GaloisField, MultiplicativeIdentityAndZero) {
    const GaloisField gf(4);
    for (std::uint16_t a = 0; a < gf.size(); ++a) {
        EXPECT_EQ(gf.mul(a, 1), a);
        EXPECT_EQ(gf.mul(a, 0), 0);
        EXPECT_EQ(gf.mul(0, a), 0);
    }
}

TEST(GaloisField, MultiplicationCommutativeAssociative) {
    const GaloisField gf(4);
    for (std::uint16_t a = 1; a < 16; ++a)
        for (std::uint16_t b = 1; b < 16; ++b) {
            EXPECT_EQ(gf.mul(a, b), gf.mul(b, a));
            for (std::uint16_t c = 1; c < 16; c += 5)
                EXPECT_EQ(gf.mul(gf.mul(a, b), c), gf.mul(a, gf.mul(b, c)));
        }
}

TEST(GaloisField, Distributivity) {
    const GaloisField gf(3);
    for (std::uint16_t a = 0; a < 8; ++a)
        for (std::uint16_t b = 0; b < 8; ++b)
            for (std::uint16_t c = 0; c < 8; ++c)
                EXPECT_EQ(gf.mul(a, gf.add(b, c)), gf.add(gf.mul(a, b), gf.mul(a, c)));
}

TEST(GaloisField, InverseProperty) {
    const GaloisField gf(6);
    for (std::uint16_t a = 1; a < gf.size(); ++a)
        EXPECT_EQ(gf.mul(a, gf.inv(a)), 1) << "a=" << a;
    EXPECT_THROW((void)gf.inv(0), std::domain_error);
}

TEST(GaloisField, PrimitiveElementGeneratesField) {
    const GaloisField gf(5);
    // alpha = x = 2: its powers alpha^0 .. alpha^(q-2) are every nonzero
    // element, and alpha^(q-1) = 1 closes the cycle.
    std::set<std::uint16_t> seen;
    std::uint16_t power = 1;
    for (unsigned i = 0; i < gf.size() - 1; ++i) {
        seen.insert(power);
        power = gf.mul(power, 2);
    }
    EXPECT_EQ(seen.size(), gf.size() - 1U);  // every nonzero element
    EXPECT_EQ(power, 1);                     // cyclic
}

TEST(GaloisField, OutOfFieldThrows) {
    const GaloisField gf(3);
    EXPECT_THROW((void)gf.mul(8, 1), std::out_of_range);
    EXPECT_THROW((void)gf.inv(8), std::out_of_range);
}

TEST(GaloisField, Gf16KnownProducts) {
    // GF(16) with x^4 + x + 1: alpha = 2; alpha^4 = alpha + 1 = 3.
    const GaloisField gf(4);
    EXPECT_EQ(gf.mul(2, 2), 4);
    EXPECT_EQ(gf.mul(4, 4), 3);      // alpha^4 = 0b0011
    EXPECT_EQ(gf.mul(8, 2), 3);      // alpha^3 * alpha = alpha^4
}

}  // namespace
