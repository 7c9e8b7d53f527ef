#include "ccap/info/drift_hmm.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <span>
#include <vector>

#include "ccap/info/lattice_engine.hpp"

namespace {

using ccap::info::DriftHmm;
using ccap::info::DriftParams;
using ccap::util::Matrix;

using Bits = std::vector<std::uint8_t>;

/// segment_likelihoods with one candidate set shared by every segment.
Matrix segment_likelihoods(const DriftHmm& hmm, const Matrix& priors, const Bits& rx,
                           std::size_t seg_len, const std::vector<Bits>& candidates) {
    ccap::info::LatticeWorkspace ws;
    return hmm.segment_likelihoods(
        priors, rx, seg_len, candidates.size(),
        [&](std::size_t) { return std::span<const Bits>(candidates); }, ws);
}

/// Exact reference P(rx | tx) by memoized recursion over the untruncated
/// generative model (geometric insertion runs, trailing insertions).
double reference_likelihood(const Bits& tx, const Bits& rx, const DriftParams& p) {
    const double inv_m = 1.0 / p.alphabet;
    std::map<std::pair<std::size_t, std::size_t>, double> memo;
    const std::function<double(std::size_t, std::size_t)> f = [&](std::size_t i,
                                                                  std::size_t j) -> double {
        const auto key = std::make_pair(i, j);
        if (auto it = memo.find(key); it != memo.end()) return it->second;
        double v = 0.0;
        if (i == tx.size()) {
            v = std::pow(p.p_i * inv_m, static_cast<double>(rx.size() - j)) * (1.0 - p.p_i);
        } else {
            if (j < rx.size()) {
                v += p.p_i * inv_m * f(i, j + 1);
                const double emit = rx[j] == tx[i]
                                        ? 1.0 - p.p_s
                                        : p.p_s / (p.alphabet - 1.0);
                v += p.p_t() * emit * f(i + 1, j + 1);
            }
            v += p.p_d * f(i + 1, j);
        }
        memo[key] = v;
        return v;
    };
    return f(0, 0);
}

DriftParams clean() { return {0.0, 0.0, 0.0, 2, 16, 8}; }

TEST(DriftParams, Validation) {
    EXPECT_NO_THROW(clean().validate());
    DriftParams bad = clean();
    bad.p_d = 0.6;
    bad.p_i = 0.5;
    EXPECT_THROW(bad.validate(), std::domain_error);
    bad = clean();
    bad.p_d = -0.1;
    EXPECT_THROW(bad.validate(), std::domain_error);
    bad = clean();
    bad.alphabet = 1;
    EXPECT_THROW(bad.validate(), std::domain_error);
    bad = clean();
    bad.max_drift = 0;
    EXPECT_THROW(bad.validate(), std::domain_error);
}

TEST(DriftHmm, CleanChannelIdentityHasUnitProbability) {
    const DriftHmm hmm(clean());
    const Bits tx = {0, 1, 1, 0, 1};
    EXPECT_NEAR(hmm.log2_likelihood(tx, tx), 0.0, 1e-12);
}

TEST(DriftHmm, CleanChannelMismatchImpossible) {
    const DriftHmm hmm(clean());
    const Bits tx = {0, 1, 1};
    const Bits rx = {0, 0, 1};
    EXPECT_TRUE(std::isinf(hmm.log2_likelihood(tx, rx)));
    const Bits shorter = {0, 1};
    EXPECT_TRUE(std::isinf(hmm.log2_likelihood(tx, shorter)));
}

TEST(DriftHmm, PureDeletionTwoSymbolCase) {
    DriftParams p = clean();
    p.p_d = 0.2;
    const DriftHmm hmm(p);
    // tx = [0,1], rx = [0]: only path is transmit(0), delete(1):
    // P = p_t * p_d = 0.8 * 0.2.
    const Bits tx = {0, 1};
    const Bits rx = {0};
    EXPECT_NEAR(hmm.log2_likelihood(tx, rx), std::log2(0.8 * 0.2), 1e-10);
}

TEST(DriftHmm, MatchesBruteForceReference) {
    DriftParams p{0.1, 0.15, 0.05, 2, 16, 10};
    const DriftHmm hmm(p);
    const std::vector<std::pair<Bits, Bits>> cases = {
        {{0, 1, 1, 0}, {0, 1, 1, 0}}, {{0, 1, 1, 0}, {0, 1, 0}},
        {{0, 1}, {0, 0, 1, 1}},       {{1, 1, 1}, {}},
        {{}, {1, 0}},                 {{0, 1, 0, 1, 1}, {1, 0, 1}},
        {{0}, {0, 0, 0}},
    };
    for (const auto& [tx, rx] : cases) {
        const double ref = reference_likelihood(tx, rx, p);
        const double got = hmm.log2_likelihood(tx, rx);
        ASSERT_GT(ref, 0.0);
        EXPECT_NEAR(got, std::log2(ref), 1e-6)
            << "tx size " << tx.size() << " rx size " << rx.size();
    }
}

TEST(DriftHmm, TernaryAlphabetMatchesReference) {
    DriftParams p{0.12, 0.08, 0.1, 3, 12, 8};
    const DriftHmm hmm(p);
    const Bits tx = {0, 2, 1, 2};
    const Bits rx = {0, 2, 2};
    EXPECT_NEAR(hmm.log2_likelihood(tx, rx),
                std::log2(reference_likelihood(tx, rx, p)), 1e-6);
}

TEST(DriftHmm, SymbolOutOfAlphabetThrows) {
    const DriftHmm hmm(clean());
    const Bits bad = {0, 2};
    const Bits ok = {0, 1};
    EXPECT_THROW((void)hmm.log2_likelihood(bad, ok), std::out_of_range);
    EXPECT_THROW((void)hmm.log2_likelihood(ok, bad), std::out_of_range);
}

TEST(DriftHmm, PosteriorsRowsNormalized) {
    DriftParams p{0.1, 0.1, 0.02, 2, 16, 8};
    const DriftHmm hmm(p);
    Matrix priors(6, 2, 0.5);
    const Bits rx = {1, 0, 1, 1, 0};
    const Matrix post = hmm.posteriors(priors, rx);
    ASSERT_EQ(post.rows(), 6U);
    for (std::size_t j = 0; j < post.rows(); ++j) {
        EXPECT_NEAR(post(j, 0) + post(j, 1), 1.0, 1e-9);
        EXPECT_GE(post(j, 0), 0.0);
        EXPECT_GE(post(j, 1), 0.0);
    }
}

TEST(DriftHmm, CleanChannelPosteriorsAreExact) {
    const DriftHmm hmm(clean());
    Matrix priors(4, 2, 0.5);
    const Bits rx = {1, 0, 0, 1};
    const Matrix post = hmm.posteriors(priors, rx);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_NEAR(post(j, rx[j]), 1.0, 1e-9);
}

TEST(DriftHmm, EvidenceMatchesUniformInputs) {
    // Clean channel, uniform priors: P(rx) = 2^-n for any rx of length n.
    const DriftHmm hmm(clean());
    Matrix priors(5, 2, 0.5);
    const Bits rx = {1, 1, 0, 1, 0};
    double evidence = 0.0;
    (void)hmm.posteriors(priors, rx, &evidence);
    EXPECT_NEAR(evidence, -5.0, 1e-9);
}

TEST(DriftHmm, NoisyPosteriorLeansTowardReceived) {
    DriftParams p{0.05, 0.05, 0.1, 2, 16, 8};
    const DriftHmm hmm(p);
    Matrix priors(8, 2, 0.5);
    const Bits rx = {1, 1, 1, 1, 1, 1, 1, 1};
    const Matrix post = hmm.posteriors(priors, rx);
    for (std::size_t j = 0; j < 8; ++j) EXPECT_GT(post(j, 1), 0.5);
}

TEST(DriftHmm, PosteriorPriorMismatchThrows) {
    const DriftHmm hmm(clean());
    Matrix bad_cols(4, 3, 1.0 / 3.0);
    const Bits rx = {0, 1};
    EXPECT_THROW((void)hmm.posteriors(bad_cols, rx), std::invalid_argument);
    Matrix not_stochastic(4, 2, 0.4);
    EXPECT_THROW((void)hmm.posteriors(not_stochastic, rx), std::invalid_argument);
}

TEST(DriftHmm, SegmentLikelihoodsCleanChannelPicksTruth) {
    const DriftHmm hmm(clean());
    Matrix priors(4, 2, 0.5);
    const Bits rx = {1, 0, 0, 1};
    const std::vector<Bits> candidates = {{1, 0}, {0, 0}, {0, 1}, {1, 1}};
    const Matrix like = segment_likelihoods(hmm, priors, rx, 2, candidates);
    ASSERT_EQ(like.rows(), 2U);
    ASSERT_EQ(like.cols(), 4U);
    EXPECT_NEAR(like(0, 0), 1.0, 1e-9);  // segment "10"
    EXPECT_NEAR(like(1, 2), 1.0, 1e-9);  // segment "01"
}

TEST(DriftHmm, SegmentLikelihoodsRowsNormalized) {
    DriftParams p{0.08, 0.08, 0.02, 2, 16, 8};
    const DriftHmm hmm(p);
    Matrix priors(6, 2, 0.5);
    const Bits rx = {1, 0, 0, 1, 1};
    const std::vector<Bits> candidates = {{0, 0, 0}, {1, 0, 0}, {0, 1, 1}, {1, 1, 1}};
    const Matrix like = segment_likelihoods(hmm, priors, rx, 3, candidates);
    for (std::size_t t = 0; t < like.rows(); ++t) {
        double sum = 0.0;
        for (std::size_t c = 0; c < like.cols(); ++c) sum += like(t, c);
        EXPECT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(DriftHmm, SegmentLikelihoodsValidation) {
    const DriftHmm hmm(clean());
    Matrix priors(4, 2, 0.5);
    const Bits rx = {0, 1, 0, 1};
    const std::vector<Bits> bad_len = {{0, 1, 0}};
    EXPECT_THROW((void)segment_likelihoods(hmm, priors, rx, 2, bad_len),
                 std::invalid_argument);
    const std::vector<Bits> empty;
    EXPECT_THROW((void)segment_likelihoods(hmm, priors, rx, 2, empty), std::invalid_argument);
    const std::vector<Bits> ok = {{0, 1}};
    EXPECT_THROW((void)segment_likelihoods(hmm, priors, rx, 3, ok), std::invalid_argument);
}

}  // namespace
