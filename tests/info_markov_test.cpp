#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Rng;
using Bits = std::vector<std::uint8_t>;

/// Uniform iid source over an m-ary alphabet.
MarkovSource uniform_source(unsigned m) {
    return {std::vector<double>(m, 1.0 / m), ccap::util::Matrix(m, m, 1.0 / m)};
}

double markov_marginal(const DriftHmm& hmm, const MarkovSource& src, std::size_t n,
                       const Bits& rx) {
    LatticeWorkspace ws;
    return hmm.log2_markov_marginal(src, n, rx, ws);
}

TEST(MarkovSource, BuildersAndValidation) {
    const MarkovSource iid = uniform_source(4);
    EXPECT_NO_THROW(iid.validate(4));
    EXPECT_THROW(iid.validate(2), std::invalid_argument);

    const MarkovSource rep = MarkovSource::binary_repeat(0.8);
    EXPECT_NO_THROW(rep.validate(2));
    EXPECT_DOUBLE_EQ(rep.transition(0, 0), 0.8);
    EXPECT_DOUBLE_EQ(rep.transition(1, 0), 0.2);

    EXPECT_THROW((void)MarkovSource::binary_repeat(1.5), std::domain_error);

    MarkovSource bad = rep;
    bad.initial = {0.7, 0.7};
    EXPECT_THROW(bad.validate(2), std::domain_error);
}

TEST(MarkovSource, SimulationStatistics) {
    Rng rng(1);
    const MarkovSource rep = MarkovSource::binary_repeat(0.9);
    const Bits seq = simulate_markov_source(rep, 2, 50000, rng);
    // Count repeats: should be ~0.9.
    std::size_t repeats = 0;
    for (std::size_t i = 1; i < seq.size(); ++i) repeats += seq[i] == seq[i - 1];
    EXPECT_NEAR(static_cast<double>(repeats) / (seq.size() - 1), 0.9, 0.01);
}

TEST(MarkovSource, SimulationEmptyAndDeterministic) {
    Rng a(2), b(2);
    const MarkovSource src = MarkovSource::binary_repeat(0.7);
    EXPECT_TRUE(simulate_markov_source(src, 2, 0, a).empty());
    EXPECT_EQ(simulate_markov_source(src, 2, 100, a), simulate_markov_source(src, 2, 100, b));
}

/// Brute-force P(rx) = sum over all tx of P_markov(tx) * P(rx | tx) using
/// the exact recursive channel likelihood.
double brute_marginal(const MarkovSource& src, std::size_t n, const Bits& rx,
                      const DriftParams& p) {
    const double inv_m = 1.0 / p.alphabet;
    const std::function<double(const Bits&, std::size_t, std::size_t)> chan =
        [&](const Bits& tx, std::size_t i, std::size_t j) -> double {
        double v = 0.0;
        if (i == tx.size())
            return std::pow(p.p_i * inv_m, static_cast<double>(rx.size() - j)) * (1.0 - p.p_i);
        if (j < rx.size()) {
            v += p.p_i * inv_m * chan(tx, i, j + 1);
            const double emit =
                rx[j] == tx[i] ? 1.0 - p.p_s : p.p_s / (p.alphabet - 1.0);
            v += p.p_t() * emit * chan(tx, i + 1, j + 1);
        }
        v += p.p_d * chan(tx, i + 1, j);
        return v;
    };
    double total = 0.0;
    for (std::uint32_t v = 0; v < (1U << n); ++v) {
        Bits tx(n);
        double prior = 1.0;
        for (std::size_t i = 0; i < n; ++i) {
            tx[i] = (v >> (n - 1 - i)) & 1U;
            prior *= i == 0 ? src.initial[tx[0]] : src.transition(tx[i - 1], tx[i]);
        }
        total += prior * chan(tx, 0, 0);
    }
    return total;
}

TEST(MarkovMarginal, MatchesBruteForce) {
    const DriftParams p{0.15, 0.1, 0.05, 2, 12, 8};
    const DriftHmm hmm(p);
    const MarkovSource src = MarkovSource::binary_repeat(0.75);
    const std::vector<Bits> rxs = {{}, {1}, {0, 1}, {1, 1, 0}, {0, 0, 1, 1, 0}};
    for (const Bits& rx : rxs) {
        for (std::size_t n : {1UL, 2UL, 4UL, 5UL}) {
            const double brute = brute_marginal(src, n, rx, p);
            ASSERT_GT(brute, 0.0);
            EXPECT_NEAR(markov_marginal(hmm, src, n, rx), std::log2(brute), 1e-6)
                << "n=" << n << " rx.size=" << rx.size();
        }
    }
}

TEST(MarkovMarginal, UniformSourceMatchesIidEvidence) {
    // With a uniform iid "Markov" source the marginal must equal the
    // evidence computed by the independent-priors posteriors() pass.
    const DriftParams p{0.1, 0.1, 0.0, 2, 16, 8};
    const DriftHmm hmm(p);
    const MarkovSource src = uniform_source(2);
    const Bits rx = {1, 0, 0, 1, 1, 0};
    ccap::util::Matrix priors(6, 2, 0.5);
    double evidence = 0.0;
    (void)hmm.posteriors(priors, rx, &evidence);
    EXPECT_NEAR(markov_marginal(hmm, src, 6, rx), evidence, 1e-9);
}

TEST(MarkovMarginal, CleanChannelMarkovProbability) {
    // Clean channel: P(rx) = P_markov(rx) exactly.
    const DriftParams p{0.0, 0.0, 0.0, 2, 8, 4};
    const DriftHmm hmm(p);
    const MarkovSource src = MarkovSource::binary_repeat(0.8);
    const Bits rx = {1, 1, 0, 0, 0};
    // P = 0.5 * 0.8 * 0.2 * 0.8 * 0.8
    EXPECT_NEAR(markov_marginal(hmm, src, 5, rx),
                std::log2(0.5 * 0.8 * 0.2 * 0.8 * 0.8), 1e-9);
}

TEST(MarkovMarginal, ZeroLengthTx) {
    const DriftParams p{0.0, 0.2, 0.0, 2, 8, 4};
    const DriftHmm hmm(p);
    const MarkovSource src = uniform_source(2);
    // rx of length 1 must be one trailing insertion: p_i*(1/2)*(1-p_i).
    const Bits rx = {1};
    EXPECT_NEAR(markov_marginal(hmm, src, 0, rx), std::log2(0.2 * 0.5 * 0.8), 1e-9);
}

TEST(MarkovMiRate, UniformMatchesIid) {
    const DriftParams p{0.1, 0.0, 0.0, 2, 24, 8};
    Rng r1(3), r2(3);
    const auto iid = iid_mutual_information_rate(p, {64, 12}, r1);
    const auto mkv =
        markov_mutual_information_rate(p, uniform_source(2), {64, 12}, r2);
    // Estimators of the same quantity (different sampling paths): agree
    // within combined Monte-Carlo noise.
    EXPECT_NEAR(iid.rate, mkv.rate, 3.0 * (iid.sem + mkv.sem) + 0.01);
}

TEST(MarkovMiRate, RunBiasedInputsBeatIidOnDeletionChannel) {
    // The Davey-MacKay / Diggavi-Grossglauser effect: repetition-biased
    // inputs raise the achievable rate when deletions are frequent.
    const DriftParams p{0.4, 0.0, 0.0, 2, 32, 8};
    Rng r1(4), r2(4);
    const auto iid = iid_mutual_information_rate(p, {64, 16}, r1);
    const auto mkv = markov_mutual_information_rate(
        p, MarkovSource::binary_repeat(0.85), {64, 16}, r2);
    EXPECT_GT(mkv.rate, iid.rate + 0.01)
        << "markov " << mkv.rate << " vs iid " << iid.rate;
}

TEST(MarkovMiRate, Validation) {
    const DriftParams p{0.1, 0.0, 0.0, 2, 16, 8};
    Rng rng(5);
    EXPECT_THROW(
        (void)markov_mutual_information_rate(p, uniform_source(2), {0, 4}, rng),
        std::invalid_argument);
    EXPECT_THROW(
        (void)markov_mutual_information_rate(p, uniform_source(4), {16, 4}, rng),
        std::invalid_argument);
}

}  // namespace
