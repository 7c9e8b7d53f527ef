// Deep property tests: the probabilistic decoders checked against
// brute-force enumeration on instances small enough to enumerate, plus
// threshold-shape properties that only show up across parameter sweeps.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <map>
#include <span>

#include "ccap/coding/ldpc_gf.hpp"
#include "ccap/coding/viterbi.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap;
using coding::Bits;
using coding::ConvolutionalCode;

// ---------------------------------------------------------------------------
// Viterbi vs exhaustive ML.
// ---------------------------------------------------------------------------

TEST(DeepViterbi, HardDecodeIsMaximumLikelihood) {
    const ConvolutionalCode code({0b111, 0b101}, 3);
    const std::size_t info_len = 7;
    util::Rng rng(2);

    for (int trial = 0; trial < 6; ++trial) {
        const Bits info = coding::random_bits(info_len, 20 + trial);
        Bits received = code.encode(info);
        for (auto& b : received)
            if (rng.bernoulli(0.2)) b ^= 1;

        // Brute-force minimum-Hamming-distance codeword.
        std::size_t best_dist = received.size() + 1;
        for (std::uint32_t v = 0; v < (1U << info_len); ++v) {
            const Bits candidate = coding::bits_from_uint(v, info_len);
            best_dist =
                std::min(best_dist, coding::hamming_distance(code.encode(candidate), received));
        }
        const auto res = coding::viterbi_decode_hard(code, received);
        EXPECT_EQ(coding::hamming_distance(code.encode(res.info), received), best_dist)
            << "trial " << trial;
        EXPECT_DOUBLE_EQ(res.path_metric, static_cast<double>(best_dist));
    }
}

// ---------------------------------------------------------------------------
// Drift-HMM posteriors vs exhaustive enumeration.
// ---------------------------------------------------------------------------

double channel_likelihood(const Bits& tx, const Bits& rx, const info::DriftParams& p) {
    const double inv_m = 1.0 / p.alphabet;
    std::map<std::pair<std::size_t, std::size_t>, double> memo;
    const std::function<double(std::size_t, std::size_t)> f = [&](std::size_t i,
                                                                  std::size_t j) -> double {
        const auto key = std::make_pair(i, j);
        if (const auto it = memo.find(key); it != memo.end()) return it->second;
        double v = 0.0;
        if (i == tx.size()) {
            v = std::pow(p.p_i * inv_m, static_cast<double>(rx.size() - j)) * (1.0 - p.p_i);
        } else {
            if (j < rx.size()) {
                v += p.p_i * inv_m * f(i, j + 1);
                const double emit = rx[j] == tx[i] ? 1.0 - p.p_s : p.p_s / (p.alphabet - 1.0);
                v += p.p_t() * emit * f(i + 1, j + 1);
            }
            v += p.p_d * f(i + 1, j);
        }
        memo[key] = v;
        return v;
    };
    return f(0, 0);
}

TEST(DeepDriftHmm, PosteriorsMatchExhaustiveEnumeration) {
    const info::DriftParams p{0.15, 0.1, 0.05, 2, 12, 10};
    const info::DriftHmm hmm(p);
    const std::size_t n = 6;
    // Non-uniform independent priors make the check stronger.
    util::Matrix priors(n, 2);
    for (std::size_t j = 0; j < n; ++j) {
        priors(j, 1) = 0.2 + 0.1 * static_cast<double>(j);
        priors(j, 0) = 1.0 - priors(j, 1);
    }
    const std::vector<Bits> rxs = {{1, 0, 1}, {0, 1, 1, 0, 1, 0}, {1, 1, 1, 1, 1, 1, 1}};
    for (const Bits& rx : rxs) {
        // Exhaustive: sum prior(tx) * P(rx | tx) over all 2^6 tx words.
        util::Matrix exact(n, 2, 0.0);
        for (std::uint32_t v = 0; v < (1U << n); ++v) {
            const Bits tx = coding::bits_from_uint(v, n);
            double prior = 1.0;
            for (std::size_t j = 0; j < n; ++j) prior *= priors(j, tx[j]);
            const double w = prior * channel_likelihood(tx, rx, p);
            for (std::size_t j = 0; j < n; ++j) exact(j, tx[j]) += w;
        }
        for (std::size_t j = 0; j < n; ++j) {
            const double norm = exact(j, 0) + exact(j, 1);
            exact(j, 0) /= norm;
            exact(j, 1) /= norm;
        }

        const util::Matrix post = hmm.posteriors(priors, rx);
        for (std::size_t j = 0; j < n; ++j)
            EXPECT_NEAR(post(j, 1), exact(j, 1), 1e-8) << "rx len " << rx.size() << " pos " << j;
    }
}

TEST(DeepDriftHmm, SegmentLikelihoodsMatchExhaustiveEnumeration) {
    // With segments covering the WHOLE sequence (one segment), the
    // Davey-MacKay approximation is exact: compare against enumeration.
    const info::DriftParams p{0.1, 0.1, 0.0, 2, 10, 8};
    const info::DriftHmm hmm(p);
    const std::size_t n = 4;
    util::Matrix priors(n, 2, 0.5);
    const Bits rx = {1, 0, 1};
    std::vector<Bits> candidates;
    for (std::uint32_t v = 0; v < (1U << n); ++v)
        candidates.push_back(coding::bits_from_uint(v, n));

    info::LatticeWorkspace ws;
    const util::Matrix like = hmm.segment_likelihoods(
        priors, rx, n, candidates.size(),
        [&](std::size_t) { return std::span<const Bits>(candidates); }, ws);
    double total = 0.0;
    std::vector<double> exact(candidates.size());
    for (std::size_t c = 0; c < candidates.size(); ++c) {
        exact[c] = channel_likelihood(candidates[c], rx, p);
        total += exact[c];
    }
    for (std::size_t c = 0; c < candidates.size(); ++c)
        EXPECT_NEAR(like(0, c), exact[c] / total, 1e-9) << "candidate " << c;
}

// ---------------------------------------------------------------------------
// NB-LDPC threshold shape.
// ---------------------------------------------------------------------------

TEST(DeepNbLdpc, SuccessRateDegradesMonotonically) {
    coding::NbLdpcParams lp;
    lp.field_m = 4;
    lp.n = 48;
    lp.num_checks = 16;
    lp.seed = 3;
    const coding::NbLdpcCode code(lp);
    util::Rng rng(4);

    double prev_rate = 1.1;
    for (const double p_err : {0.02, 0.10, 0.25}) {
        int ok = 0;
        constexpr int kTrials = 12;
        for (int t = 0; t < kTrials; ++t) {
            std::vector<std::uint16_t> info(code.k());
            for (auto& s : info) s = static_cast<std::uint16_t>(rng.uniform_below(16));
            auto word = code.encode(info);
            auto observed = word;
            for (auto& s : observed)
                if (rng.bernoulli(p_err)) s = static_cast<std::uint16_t>(rng.uniform_below(16));
            util::Matrix like(code.n(), 16, p_err / 15.0);
            for (std::size_t v = 0; v < code.n(); ++v) like(v, observed[v]) = 1.0 - p_err;
            const auto res = code.decode(like);
            ok += res.converged && res.symbols == word;
        }
        const double rate = static_cast<double>(ok) / kTrials;
        EXPECT_LE(rate, prev_rate + 0.10) << "p_err " << p_err;
        prev_rate = rate;
    }
    // The last operating point (25% symbol errors at rate 2/3) should be
    // mostly undecodable; the first should be near-perfect.
    EXPECT_LT(prev_rate, 0.5);
}

}  // namespace
