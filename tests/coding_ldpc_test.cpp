#include "ccap/coding/ldpc_gf.hpp"

#include <gtest/gtest.h>

#include "ccap/util/rng.hpp"

namespace {

using ccap::coding::NbLdpcCode;
using ccap::coding::NbLdpcParams;
using ccap::util::Matrix;
using ccap::util::Rng;

NbLdpcParams small_params() {
    NbLdpcParams p;
    p.field_m = 4;       // GF(16)
    p.n = 48;
    p.num_checks = 16;
    p.var_degree = 3;
    p.seed = 7;
    return p;
}

/// Uniform information symbols over GF(q); q = 16 is small_params()'s field.
std::vector<std::uint16_t> random_info(const NbLdpcCode& code, std::uint64_t seed,
                                       unsigned q = 16) {
    Rng rng(seed);
    std::vector<std::uint16_t> info(code.k());
    for (auto& s : info) s = static_cast<std::uint16_t>(rng.uniform_below(q));
    return info;
}

/// Channel likelihoods for a word observed through a q-ary symmetric
/// channel with error probability p (each wrong symbol equally likely).
Matrix qsc_likelihoods(const NbLdpcCode& code, std::span<const std::uint16_t> observed,
                       double p, unsigned q = 16) {
    Matrix like(code.n(), q, p / (q - 1));
    for (std::size_t v = 0; v < code.n(); ++v) like(v, observed[v]) = 1.0 - p;
    return like;
}

TEST(NbLdpc, ConstructionValidation) {
    NbLdpcParams p = small_params();
    p.num_checks = 0;
    EXPECT_THROW(NbLdpcCode{p}, std::invalid_argument);
    p = small_params();
    p.num_checks = p.n;
    EXPECT_THROW(NbLdpcCode{p}, std::invalid_argument);
    p = small_params();
    p.var_degree = 1;
    EXPECT_THROW(NbLdpcCode{p}, std::invalid_argument);
}

TEST(NbLdpc, FullRankGivesDesignRate) {
    const NbLdpcCode code(small_params());
    EXPECT_EQ(code.k(), code.n() - small_params().num_checks);  // rate 2/3
}

TEST(NbLdpc, EncodeSatisfiesChecks) {
    const NbLdpcCode code(small_params());
    for (int trial = 0; trial < 10; ++trial) {
        const auto info = random_info(code, 100 + trial);
        const auto word = code.encode(info);
        EXPECT_EQ(word.size(), code.n());
        EXPECT_TRUE(code.check(word));
        EXPECT_EQ(code.extract_info(word), info);
    }
}

TEST(NbLdpc, EncodeValidation) {
    const NbLdpcCode code(small_params());
    std::vector<std::uint16_t> wrong_size(code.k() + 1, 0);
    EXPECT_THROW((void)code.encode(wrong_size), std::invalid_argument);
    std::vector<std::uint16_t> out_of_field(code.k(), 16);
    EXPECT_THROW((void)code.encode(out_of_field), std::out_of_range);
}

TEST(NbLdpc, CheckRejectsNonCodewords) {
    const NbLdpcCode code(small_params());
    auto word = code.encode(random_info(code, 5));
    word[3] = static_cast<std::uint16_t>(word[3] ^ 1U);
    EXPECT_FALSE(code.check(word));
    std::vector<std::uint16_t> wrong_len(code.n() - 1, 0);
    EXPECT_FALSE(code.check(wrong_len));
}

TEST(NbLdpc, DecodeCleanObservation) {
    const NbLdpcCode code(small_params());
    const auto info = random_info(code, 9);
    const auto word = code.encode(info);
    const auto res = code.decode(qsc_likelihoods(code, word, 0.01));
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.symbols, word);
}

TEST(NbLdpc, DecodeCorrectsSymbolErrors) {
    const NbLdpcCode code(small_params());
    Rng rng(11);
    int successes = 0;
    for (int trial = 0; trial < 10; ++trial) {
        const auto info = random_info(code, 200 + trial);
        const auto word = code.encode(info);
        auto observed = word;
        // Corrupt 3 of 48 symbols (~6%).
        for (int e = 0; e < 3; ++e) {
            const std::size_t pos = rng.uniform_below(code.n());
            observed[pos] = static_cast<std::uint16_t>(rng.uniform_below(16));
        }
        const auto res = code.decode(qsc_likelihoods(code, observed, 0.07));
        if (res.converged && res.symbols == word) ++successes;
    }
    EXPECT_GE(successes, 8);
}

TEST(NbLdpc, DecodeReportsNonConvergenceOnGarbage) {
    const NbLdpcCode code(small_params());
    Rng rng(12);
    Matrix garbage(code.n(), 16);
    for (std::size_t v = 0; v < code.n(); ++v)
        for (unsigned s = 0; s < 16; ++s) garbage(v, s) = rng.uniform() + 0.01;
    const auto res = code.decode(garbage, 10);
    // Overwhelmingly likely that random likelihoods don't decode to a
    // codeword within 10 iterations.
    EXPECT_FALSE(res.converged);
    EXPECT_EQ(res.iterations, 10);
}

TEST(NbLdpc, DecodeValidatesLikelihoodShape) {
    const NbLdpcCode code(small_params());
    Matrix wrong(code.n(), 8, 1.0 / 8);
    EXPECT_THROW((void)code.decode(wrong), std::invalid_argument);
}

TEST(NbLdpc, DifferentSeedsDifferentCodes) {
    NbLdpcParams a = small_params();
    NbLdpcParams b = small_params();
    b.seed = 8;
    const NbLdpcCode ca(a), cb(b);
    const auto info = random_info(ca, 3);
    EXPECT_NE(ca.encode(info), cb.encode(info));
}

TEST(NbLdpc, BinaryFieldWorksToo) {
    NbLdpcParams p = small_params();
    p.field_m = 1;  // GF(2)
    p.n = 60;
    p.num_checks = 20;
    const NbLdpcCode code(p);
    const auto info = random_info(code, 77, 2);
    const auto word = code.encode(info);
    EXPECT_TRUE(code.check(word));
    const auto res = code.decode(qsc_likelihoods(code, word, 0.02, 2));
    EXPECT_TRUE(res.converged);
    EXPECT_EQ(res.symbols, word);
}

}  // namespace
