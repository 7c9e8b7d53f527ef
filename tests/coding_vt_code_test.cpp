#include "ccap/coding/vt_code.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace {

using namespace ccap::coding;

/// All codewords of VT_a(n) by exhaustive enumeration (test-only, n <= 16).
std::vector<Bits> enumerate_codewords(unsigned n, unsigned a) {
    const VtCode code(n, a);
    std::vector<Bits> words;
    for (std::uint32_t v = 0; v < (1U << n); ++v) {
        Bits w = bits_from_uint(v, n);
        if (code.is_codeword(w)) words.push_back(std::move(w));
    }
    return words;
}

TEST(VtCode, ConstructionValidation) {
    EXPECT_THROW(VtCode(1, 0), std::invalid_argument);
    EXPECT_THROW(VtCode(8, 9), std::invalid_argument);
    EXPECT_NO_THROW(VtCode(8, 0));
    EXPECT_NO_THROW(VtCode(8, 8));
}

TEST(VtCode, ChecksumDefinition) {
    const VtCode code(5, 0);
    // word 01001: positions with 1s are {2, 5}; sum = 7 mod 6 = 1.
    EXPECT_EQ(code.checksum(bits_from_string("01001")), 1U);
    EXPECT_EQ(code.checksum(bits_from_string("00000")), 0U);
}

TEST(VtCode, DataBitsCount) {
    EXPECT_EQ(VtCode(8, 0).data_bits(), 4U);   // parities at 1,2,4,8
    EXPECT_EQ(VtCode(15, 0).data_bits(), 11U); // parities at 1,2,4,8
    EXPECT_EQ(VtCode(16, 0).data_bits(), 11U); // parities at 1,2,4,8,16
}

TEST(VtCode, EncodeProducesCodewords) {
    const VtCode code(10, 0);
    for (std::uint32_t v = 0; v < (1U << code.data_bits()); ++v) {
        const Bits info = bits_from_uint(v, code.data_bits());
        const Bits word = code.encode(info);
        EXPECT_TRUE(code.is_codeword(word)) << "info " << v;
        EXPECT_EQ(code.extract_info(word), info);
    }
}

TEST(VtCode, EncodeIsInjective) {
    const VtCode code(9, 0);
    std::vector<Bits> seen;
    for (std::uint32_t v = 0; v < (1U << code.data_bits()); ++v) {
        const Bits word = code.encode(bits_from_uint(v, code.data_bits()));
        for (const Bits& other : seen) EXPECT_NE(word, other);
        seen.push_back(word);
    }
}

TEST(VtCode, EncodeWrongSizeThrows) {
    const VtCode code(8, 0);
    EXPECT_THROW((void)code.encode(Bits(3, 0)), std::invalid_argument);
}

class VtAllDeletions : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(VtAllDeletions, EveryCodewordEveryDeletionPosition) {
    const auto [n, a] = GetParam();
    const VtCode code(n, a);
    for (const Bits& word : enumerate_codewords(n, a)) {
        for (unsigned del = 0; del < n; ++del) {
            Bits received;
            for (unsigned i = 0; i < n; ++i)
                if (i != del) received.push_back(word[i]);
            const VtDecodeResult res = code.decode(received);
            ASSERT_EQ(res.status, VtStatus::ok)
                << "n=" << n << " a=" << a << " word=" << to_string(word) << " del=" << del;
            EXPECT_EQ(res.codeword, word);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VtAllDeletions,
                         ::testing::Values(std::tuple{6U, 0U}, std::tuple{6U, 3U},
                                           std::tuple{8U, 0U}, std::tuple{8U, 5U},
                                           std::tuple{10U, 0U}, std::tuple{11U, 7U}));

class VtAllInsertions : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>> {};

TEST_P(VtAllInsertions, EveryCodewordEveryInsertion) {
    const auto [n, a] = GetParam();
    const VtCode code(n, a);
    for (const Bits& word : enumerate_codewords(n, a)) {
        for (unsigned pos = 0; pos <= n; ++pos) {
            for (std::uint8_t bit = 0; bit <= 1; ++bit) {
                Bits received = word;
                received.insert(received.begin() + pos, bit);
                const VtDecodeResult res = code.decode(received);
                ASSERT_EQ(res.status, VtStatus::ok)
                    << "word=" << to_string(word) << " pos=" << pos << " bit=" << int(bit);
                EXPECT_EQ(res.codeword, word);
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, VtAllInsertions,
                         ::testing::Values(std::tuple{6U, 0U}, std::tuple{8U, 0U},
                                           std::tuple{8U, 4U}, std::tuple{9U, 2U}));

TEST(VtCode, CleanWordPassesThrough) {
    const VtCode code(10, 0);
    const Bits word = code.encode(bits_from_string("110100"));
    const VtDecodeResult res = code.decode(word);
    EXPECT_EQ(res.status, VtStatus::ok);
    EXPECT_EQ(res.codeword, word);
}

TEST(VtCode, SubstitutionIsDetected) {
    const VtCode code(10, 0);
    Bits word = code.encode(bits_from_string("101010"));
    // A substitution changes the checksum by the (nonzero) position value,
    // so a same-length word fails the checksum.
    word[4] ^= 1;
    EXPECT_EQ(code.decode(word).status, VtStatus::detected_failure);
}

TEST(VtCode, BadLengthRejected) {
    const VtCode code(10, 0);
    EXPECT_EQ(code.decode(Bits(7, 0)).status, VtStatus::bad_length);
    EXPECT_EQ(code.decode(Bits(13, 0)).status, VtStatus::bad_length);
}

TEST(VtCode, RateImprovesWithLength) {
    EXPECT_LT(VtCode(8, 0).rate(), VtCode(64, 0).rate());
}

TEST(VtCode, Vt0IsLargest) {
    // Classic fact: |VT_0(n)| >= |VT_a(n)| for all a.
    for (unsigned n : {6U, 8U, 10U}) {
        const std::size_t size0 = enumerate_codewords(n, 0).size();
        for (unsigned a = 1; a <= n; ++a)
            EXPECT_GE(size0, enumerate_codewords(n, a).size()) << "n=" << n << " a=" << a;
    }
}

TEST(VtCode, CodebookSizeMatchesLevenshteinBound) {
    // |VT_0(n)| ~ 2^n/(n+1); exact values: n=6 -> 10, n=8 -> 30.
    EXPECT_EQ(enumerate_codewords(6, 0).size(), 10U);
    EXPECT_EQ(enumerate_codewords(8, 0).size(), 30U);
}

}  // namespace
