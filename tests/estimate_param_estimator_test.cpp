#include "ccap/estimate/param_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/util/solvers.hpp"

namespace {

using namespace ccap::estimate;
using ccap::core::DeletionInsertionChannel;
using ccap::core::DiChannelParams;
using Trace = std::vector<std::uint32_t>;

Trace random_trace(std::size_t n, unsigned bits, std::uint64_t seed) {
    ccap::util::Rng rng(seed);
    Trace t(n);
    for (auto& s : t) s = static_cast<std::uint32_t>(rng.uniform_below(1ULL << bits));
    return t;
}

TEST(ParamEstimator, CleanTraceGivesZeroRates) {
    const Trace t = random_trace(3000, 2, 1);
    const ParamEstimate est = estimate_params(t, t);
    EXPECT_DOUBLE_EQ(est.p_d.value, 0.0);
    EXPECT_DOUBLE_EQ(est.p_i.value, 0.0);
    EXPECT_DOUBLE_EQ(est.p_s.value, 0.0);
    EXPECT_EQ(est.channel_uses, t.size());
}

TEST(ParamEstimator, EmptyTraces) {
    const ParamEstimate est = estimate_params({}, {});
    EXPECT_DOUBLE_EQ(est.p_d.value, 0.0);
    EXPECT_EQ(est.channel_uses, 0U);
    const ParamEstimate mle = estimate_params_mle({}, {}, 2);
    EXPECT_DOUBLE_EQ(mle.p_d.value, 0.0);
    EXPECT_EQ(mle.channel_uses, 0U);
}

TEST(ParamEstimator, AllDeleted) {
    const Trace sent = random_trace(500, 1, 2);
    const ParamEstimate est = estimate_params(sent, {});
    EXPECT_DOUBLE_EQ(est.p_d.value, 1.0);
}

TEST(ParamEstimator, PureTrailingInsertions) {
    const Trace received = random_trace(100, 1, 3);
    const ParamEstimate est = estimate_params({}, received);
    EXPECT_DOUBLE_EQ(est.p_i.value, 1.0);
}

class EstimatorRecovery
    : public ::testing::TestWithParam<std::tuple<double, double, double>> {};

TEST_P(EstimatorRecovery, MleRecoversChannelParameters) {
    const auto [pd, pi, ps] = GetParam();
    const DiChannelParams truth{pd, pi, ps, 3};
    DeletionInsertionChannel ch(truth, 42);
    const Trace sent = random_trace(6000, 3, 4);
    const auto transduction = ch.transduce(sent);
    const ParamEstimate est = estimate_params_mle(sent, transduction.output, 3);
    EXPECT_NEAR(est.p_d.value, pd, 0.025) << "pd";
    EXPECT_NEAR(est.p_i.value, pi, 0.025) << "pi";
    EXPECT_NEAR(est.p_s.value, ps, 0.025) << "ps";
}

INSTANTIATE_TEST_SUITE_P(Grid, EstimatorRecovery,
                         ::testing::Values(std::tuple{0.0, 0.0, 0.0},
                                           std::tuple{0.1, 0.0, 0.0},
                                           std::tuple{0.0, 0.1, 0.0},
                                           std::tuple{0.0, 0.0, 0.1},
                                           std::tuple{0.1, 0.05, 0.02},
                                           std::tuple{0.2, 0.1, 0.0},
                                           std::tuple{0.05, 0.2, 0.05}));

TEST(ParamEstimator, AlignmentEstimatorBiasIsBoundedAndDirectional) {
    // Documented limitation: minimum-edit alignment merges nearby
    // deletion+insertion pairs into substitutions, so it *under*-estimates
    // P_d/P_i and *over*-estimates P_s when both indel types are present.
    const DiChannelParams truth{0.15, 0.1, 0.0, 3};
    DeletionInsertionChannel ch(truth, 50);
    const Trace sent = random_trace(20000, 3, 51);
    const auto t = ch.transduce(sent);
    const ParamEstimate est = estimate_params(sent, t.output);
    EXPECT_LE(est.p_d.value, truth.p_d + 0.01);  // biased downward
    EXPECT_LE(est.p_i.value, truth.p_i + 0.01);
    EXPECT_GE(est.p_s.value, truth.p_s);  // spillover into substitutions
    // Still in the right ballpark (within ~half the true rate).
    EXPECT_GT(est.p_d.value, truth.p_d * 0.5);
    EXPECT_GT(est.p_i.value, truth.p_i * 0.25);
}

TEST(ParamEstimator, MleValidation) {
    const Trace t = random_trace(100, 2, 52);
    EXPECT_THROW((void)estimate_params_mle(t, t, 0), std::invalid_argument);
    EXPECT_THROW((void)estimate_params_mle(t, t, 9), std::invalid_argument);
    const Trace bad = {1, 4};  // 4 out of 2-bit alphabet
    EXPECT_THROW((void)estimate_params_mle(bad, t, 1), std::out_of_range);
}

TEST(ParamEstimator, MleCleanTraceIsNearZero) {
    const Trace t = random_trace(2000, 2, 53);
    const ParamEstimate est = estimate_params_mle(t, t, 2);
    EXPECT_LT(est.p_d.value, 0.01);
    EXPECT_LT(est.p_i.value, 0.01);
    EXPECT_LT(est.p_s.value, 0.01);
}

TEST(ParamEstimator, BootstrapCiCoversPointEstimate) {
    const DiChannelParams truth{0.15, 0.1, 0.0, 2};
    DeletionInsertionChannel ch(truth, 7);
    const Trace sent = random_trace(8000, 2, 5);
    const auto t = ch.transduce(sent);
    const ParamEstimate est = estimate_params(sent, t.output);
    EXPECT_LE(est.p_d.ci_low, est.p_d.value);
    EXPECT_GE(est.p_d.ci_high, est.p_d.value);
    EXPECT_LT(est.p_d.ci_high - est.p_d.ci_low, 0.1);  // reasonably tight
    EXPECT_LE(est.p_i.ci_low, est.p_i.value);
    EXPECT_GE(est.p_i.ci_high, est.p_i.value);
}

TEST(ParamEstimator, ParamsConversion) {
    ParamEstimate est;
    est.p_d.value = 0.1;
    est.p_i.value = 0.05;
    est.p_s.value = 0.01;
    const auto p = est.params(4);
    EXPECT_DOUBLE_EQ(p.p_d, 0.1);
    EXPECT_EQ(p.bits_per_symbol, 4U);
    EXPECT_NO_THROW(p.validate());
}

TEST(ParamEstimator, ZeroBlockLenThrows) {
    EstimatorOptions opt;
    opt.block_len = 0;
    const Trace t = random_trace(10, 1, 6);
    EXPECT_THROW((void)estimate_params(t, t, opt), std::invalid_argument);
}

TEST(ParamEstimator, RatesFromSingleAlignment) {
    const Trace sent = {1, 2, 3, 4};
    const Trace received = {1, 9, 3};  // one substitution, one deletion
    const ParamEstimate est = rates_from_alignment(align(sent, received));
    EXPECT_DOUBLE_EQ(est.p_d.value, 0.25);  // 1 deletion / 4 uses
    EXPECT_DOUBLE_EQ(est.p_i.value, 0.0);
    EXPECT_NEAR(est.p_s.value, 1.0 / 3.0, 1e-12);
}

TEST(ParamEstimator, DeterministicBootstrap) {
    const DiChannelParams truth{0.1, 0.1, 0.0, 2};
    DeletionInsertionChannel ch(truth, 9);
    const Trace sent = random_trace(4000, 2, 8);
    const auto t = ch.transduce(sent);
    const ParamEstimate a = estimate_params(sent, t.output);
    const ParamEstimate b = estimate_params(sent, t.output);
    EXPECT_DOUBLE_EQ(a.p_d.ci_low, b.p_d.ci_low);
    EXPECT_DOUBLE_EQ(a.p_i.ci_high, b.p_i.ci_high);
}

/// Scalar reference for estimate_params_mle, built from public API only:
/// the alignment seed, the blockwise end-free split capped at 256 sent
/// symbols per block and 2048 per fit, one DriftHmm::log2_likelihood call
/// per block per candidate, two golden-section coordinate-descent sweeps,
/// then the bootstrap widths re-centred on the optimum (floor +-5%).
ParamEstimate scalar_mle_reference(const Trace& sent, const Trace& received, unsigned bits,
                                   const EstimatorOptions& options) {
    ParamEstimate est = estimate_params(sent, received, options);
    if (sent.empty() && received.empty()) return est;

    using Bytes = std::vector<std::uint8_t>;
    std::vector<std::pair<Bytes, Bytes>> blocks;
    int max_diff = 1;
    const std::size_t eff_block = std::min<std::size_t>(options.block_len, 256);
    for (std::size_t sp = 0, rp = 0, used = 0; sp < sent.size() && used < 2048;) {
        const std::size_t n = std::min(eff_block, sent.size() - sp);
        const std::size_t w = drift_window(n, received.size() - rp);
        const std::size_t consumed =
            align_end_free(std::span(sent).subspan(sp, n), std::span(received).subspan(rp, w))
                .received_consumed;
        blocks.emplace_back(Bytes(sent.begin() + static_cast<std::ptrdiff_t>(sp),
                                  sent.begin() + static_cast<std::ptrdiff_t>(sp + n)),
                            Bytes(received.begin() + static_cast<std::ptrdiff_t>(rp),
                                  received.begin() + static_cast<std::ptrdiff_t>(rp + consumed)));
        max_diff = std::max(max_diff, static_cast<int>(std::llabs(
                                          static_cast<long long>(consumed) -
                                          static_cast<long long>(n))));
        sp += n;
        rp += consumed;
        used += n;
    }
    if (blocks.empty()) return est;

    const auto log_likelihood = [&](double pd, double pi, double ps) {
        if (pd < 0.0 || pi < 0.0 || ps < 0.0 || ps > 1.0 || pd + pi > 0.9) return -1e18;
        ccap::info::DriftParams dp;
        dp.p_d = pd;
        dp.p_i = pi;
        dp.p_s = ps;
        dp.alphabet = 1U << bits;
        dp.max_drift = max_diff + 32;
        dp.max_insert_run = 10;
        const ccap::info::DriftHmm hmm(dp);
        double total = 0.0;
        for (const auto& [tx, rx] : blocks) {
            const double ll = hmm.log2_likelihood(tx, rx);
            total += std::isfinite(ll) ? ll : -1e6;
        }
        return total;
    };
    double pd = std::clamp(est.p_d.value, 0.001, 0.6);
    double pi = std::clamp(est.p_i.value, 0.001, 0.6);
    double ps = std::clamp(est.p_s.value, 0.0, 0.5);
    for (int sweep = 0; sweep < 2; ++sweep) {
        pd = ccap::util::golden_max([&](double x) { return log_likelihood(x, pi, ps); }, 0.0,
                                    std::min(0.85, 0.9 - pi), 2e-3)
                 .x;
        pi = ccap::util::golden_max([&](double x) { return log_likelihood(pd, x, ps); }, 0.0,
                                    std::min(0.85, 0.9 - pd), 2e-3)
                 .x;
        ps = ccap::util::golden_max([&](double x) { return log_likelihood(pd, pi, x); }, 0.0,
                                    0.6, 2e-3)
                 .x;
    }
    const auto recenter = [](RateEstimate& rate, double v) {
        const double half = std::max(v * 0.05, (rate.ci_high - rate.ci_low) / 2.0);
        rate.value = v;
        rate.ci_low = std::max(0.0, v - half);
        rate.ci_high = v + half;
    };
    recenter(est.p_d, pd);
    recenter(est.p_i, pi);
    recenter(est.p_s, ps);
    return est;
}

TEST(ParamEstimator, MleBatchedSearchBitIdenticalToScalarReference) {
    struct Case {
        unsigned bits;
        std::size_t len;
        std::size_t block_len;
        DiChannelParams channel;
    };
    // Alphabets 2, 4 and 8; sent lengths that leave a ragged tail block
    // (1000 = 3 x 256 + 232, 730 = 7 x 100 + 30, 900 = 14 x 64 + 4, and
    // 2100 = 56 x 37 + 28, which the 2048-symbol cap cuts to 56 full
    // blocks); block lengths below 256; and a clean channel.
    const std::vector<Case> cases = {
        {1, 1000, 512, {0.10, 0.05, 0.02, 1}}, {2, 730, 100, {0.08, 0.04, 0.03, 2}},
        {3, 900, 64, {0.05, 0.10, 0.05, 3}},   {1, 2100, 37, {0.12, 0.02, 0.0, 1}},
        {2, 600, 512, {0.0, 0.0, 0.0, 2}},
    };
    const auto expect_same = [](const ParamEstimate& got, const ParamEstimate& want) {
        for (const auto& [g, w] : {std::pair{&got.p_d, &want.p_d}, std::pair{&got.p_i, &want.p_i},
                                  std::pair{&got.p_s, &want.p_s}}) {
            EXPECT_EQ(g->value, w->value);
            EXPECT_EQ(g->ci_low, w->ci_low);
            EXPECT_EQ(g->ci_high, w->ci_high);
        }
        EXPECT_EQ(got.channel_uses, want.channel_uses);
        EXPECT_EQ(got.blocks, want.blocks);
    };
    for (std::size_t i = 0; i < cases.size(); ++i) {
        const Case& c = cases[i];
        SCOPED_TRACE("case " + std::to_string(i));
        const Trace sent = random_trace(c.len, c.bits, 70 + i);
        DeletionInsertionChannel ch(c.channel, 80 + i);
        const Trace received = ch.transduce(sent).output;
        EstimatorOptions opt;
        opt.block_len = c.block_len;
        expect_same(estimate_params_mle(sent, received, c.bits, opt),
                    scalar_mle_reference(sent, received, c.bits, opt));
    }
    // Nothing sent, something received: the alignment estimate stands.
    const Trace received = random_trace(50, 1, 90);
    expect_same(estimate_params_mle({}, received, 1), scalar_mle_reference({}, received, 1, {}));
}

}  // namespace
