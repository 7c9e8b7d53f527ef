#include "ccap/estimate/param_estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>

#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/info/drift_hmm.hpp"

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

/// The MLE's fitted blocks, built from public API only: the blockwise
/// end-free split capped at 256 sent symbols per block and 2048 per fit.
struct MleBlocks {
    std::vector<std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>> blocks;
    int max_diff = 1;
};

MleBlocks mle_blocks(const Trace& sent, const Trace& received, std::size_t block_len) {
    using Bytes = std::vector<std::uint8_t>;
    MleBlocks out;
    const std::size_t eff_block = std::min<std::size_t>(block_len, 256);
    for (std::size_t sp = 0, rp = 0, used = 0; sp < sent.size() && used < 2048;) {
        const std::size_t n = std::min(eff_block, sent.size() - sp);
        const std::size_t w = drift_window(n, received.size() - rp);
        const std::size_t consumed =
            align_end_free(std::span(sent).subspan(sp, n), std::span(received).subspan(rp, w))
                .received_consumed;
        out.blocks.emplace_back(
            Bytes(sent.begin() + static_cast<std::ptrdiff_t>(sp),
                  sent.begin() + static_cast<std::ptrdiff_t>(sp + n)),
            Bytes(received.begin() + static_cast<std::ptrdiff_t>(rp),
                  received.begin() + static_cast<std::ptrdiff_t>(rp + consumed)));
        out.max_diff = std::max(out.max_diff, static_cast<int>(std::llabs(
                                                  static_cast<long long>(consumed) -
                                                  static_cast<long long>(n))));
        sp += n;
        rp += consumed;
        used += n;
    }
    return out;
}

/// The MLE's objective, one scalar DriftHmm::log2_likelihood call per
/// block: log2 P(received | sent) summed in block order, -1e6 for a block
/// outside the truncation, -1e18 outside the domain.
double mle_objective(const MleBlocks& m, unsigned bits, const std::array<double, 3>& p) {
    if (p[0] < 0.0 || p[1] < 0.0 || p[2] < 0.0 || p[2] > 1.0 || p[0] + p[1] > 0.9)
        return -1e18;
    ccap::info::DriftParams dp;
    dp.p_d = p[0];
    dp.p_i = p[1];
    dp.p_s = p[2];
    dp.alphabet = 1U << bits;
    dp.max_drift = m.max_diff + 32;
    dp.max_insert_run = 10;
    const ccap::info::DriftHmm hmm(dp);
    double total = 0.0;
    for (const auto& [tx, rx] : m.blocks) {
        const double ll = hmm.log2_likelihood(tx, rx);
        total += std::isfinite(ll) ? ll : -1e6;
    }
    return total;
}

/// The MLE's clamped alignment seed.
std::array<double, 3> mle_seed(const ParamEstimate& align) {
    std::array<double, 3> seed{std::clamp(align.p_d.value, 0.001, 0.6),
                               std::clamp(align.p_i.value, 0.001, 0.6),
                               std::max(std::clamp(align.p_s.value, 0.0, 0.5), 1e-4)};
    const double room = 0.85 * std::exp(-0.05);
    if (seed[0] + seed[1] > room) {
        const double shrink = room / (seed[0] + seed[1]);
        seed[0] *= shrink;
        seed[1] *= shrink;
    }
    return seed;
}

/// Scalar reference for estimate_params_mle: the alignment seed, then
/// damped Newton steps in theta = ln p on the 10-point stencil (h = 0.05;
/// Gershgorin shift when the negated Hessian is not positive definite;
/// steps capped at 0.7 and halved while they lower the objective; stop
/// once a full step moves every p by less than 2e-3, taking it unless it
/// lowers the objective, or at 20 iterations), then observed-information
/// intervals from the last stencil.
ParamEstimate scalar_mle_reference(const Trace& sent, const Trace& received, unsigned bits,
                                   const EstimatorOptions& options) {
    using V = std::array<double, 3>;
    using M = std::array<V, 3>;
    ParamEstimate est = estimate_params(sent, received, options);
    if (sent.empty() && received.empty()) return est;
    const MleBlocks m = mle_blocks(sent, received, options.block_len);
    if (m.blocks.empty()) return est;

    const auto exp3 = [](const V& t) {
        return V{std::exp(t[0]), std::exp(t[1]), std::exp(t[2])};
    };
    const auto f = [&](const V& t) { return mle_objective(m, bits, exp3(t)); };
    const auto chol = [](const M& a, const V& b, V& x) {
        M l{};
        for (std::size_t i = 0; i < 3; ++i)
            for (std::size_t j = 0; j <= i; ++j) {
                double sum = a[i][j];
                for (std::size_t k = 0; k < j; ++k) sum -= l[i][k] * l[j][k];
                if (i == j) {
                    if (!(sum > 0.0)) return false;
                    l[i][i] = std::sqrt(sum);
                } else {
                    l[i][j] = sum / l[j][j];
                }
            }
        V y{};
        for (std::size_t i = 0; i < 3; ++i) {
            double sum = b[i];
            for (std::size_t k = 0; k < i; ++k) sum -= l[i][k] * y[k];
            y[i] = sum / l[i][i];
        }
        for (std::size_t i = 3; i-- > 0;) {
            double sum = y[i];
            for (std::size_t k = i + 1; k < 3; ++k) sum -= l[k][i] * x[k];
            x[i] = sum / l[i][i];
        }
        return true;
    };

    const double h = 0.05;
    const V seed = mle_seed(est);
    V theta{std::log(seed[0]), std::log(seed[1]), std::log(seed[2])};
    double f0 = f(theta);
    M info{};
    V centre{};
    for (int it = 1; it <= 20; ++it) {
        est.iterations = it;
        V fp{}, fm{};
        for (std::size_t i = 0; i < 3; ++i) {
            V t = theta;
            t[i] = theta[i] + h;
            fp[i] = f(t);
            t[i] = theta[i] - h;
            fm[i] = f(t);
        }
        V g{};
        M a{};
        for (std::size_t i = 0; i < 3; ++i) {
            g[i] = (fp[i] - fm[i]) / (2.0 * h);
            a[i][i] = -(fp[i] - 2.0 * f0 + fm[i]) / (h * h);
            for (std::size_t j = 0; j < i; ++j) {
                V t = theta;
                t[i] = theta[i] + h;
                t[j] = theta[j] + h;
                a[i][j] = a[j][i] = -(f(t) - fp[i] - fp[j] + f0) / (h * h);
            }
        }
        V probe{};
        if (!chol(a, V{1.0, 1.0, 1.0}, probe)) {
            double shift = 0.0, scale = 0.0;
            for (std::size_t i = 0; i < 3; ++i) {
                double off = 0.0;
                for (std::size_t j = 0; j < 3; ++j)
                    if (j != i) off += std::fabs(a[i][j]);
                shift = std::max(shift, off - a[i][i]);
                scale = std::max(scale, std::fabs(a[i][i]));
            }
            shift += 1e-3 * (1.0 + scale);
            for (std::size_t i = 0; i < 3; ++i) a[i][i] += shift;
        }
        info = a;
        centre = theta;
        V step{};
        if (!chol(info, g, step)) break;
        const double longest =
            std::max({std::fabs(step[0]), std::fabs(step[1]), std::fabs(step[2])});
        if (longest > 0.7)
            for (double& s : step) s *= 0.7 / longest;
        const V p_old = exp3(theta);
        V trial{};
        for (std::size_t i = 0; i < 3; ++i) trial[i] = theta[i] + step[i];
        const V p_full = exp3(trial);
        double moved = 0.0;
        for (std::size_t i = 0; i < 3; ++i)
            moved = std::max(moved, std::fabs(p_full[i] - p_old[i]));
        const auto feasible = [&](const V& t) {
            const V pt = exp3(t);
            return (pt[0] + pt[1]) * std::exp(h) <= 0.9 && pt[2] * std::exp(h) <= 1.0;
        };
        if (moved < 2e-3) {
            if (feasible(trial)) {
                const double f_trial = f(trial);
                if (f_trial >= f0) {
                    theta = trial;
                    f0 = f_trial;
                }
            }
            est.converged = true;
            break;
        }
        int halvings = 0;
        double f_trial = 0.0;
        for (;;) {
            if (feasible(trial)) {
                f_trial = f(trial);
                if (f_trial >= f0) break;
            }
            if (++halvings > 12) break;
            for (std::size_t i = 0; i < 3; ++i) {
                step[i] *= 0.5;
                trial[i] = theta[i] + step[i];
            }
        }
        if (halvings > 12) break;
        theta = trial;
        f0 = f_trial;
    }
    const V p = exp3(theta), pc = exp3(centre);
    RateEstimate* rates[3] = {&est.p_d, &est.p_i, &est.p_s};
    for (std::size_t i = 0; i < 3; ++i) {
        V e{}, col{};
        e[i] = 1.0 / std::log(2.0);
        (void)chol(info, e, col);
        const double half = 1.96 * std::sqrt(col[i]) * pc[i];
        rates[i]->value = p[i];
        rates[i]->ci_low = std::max(0.0, p[i] - half);
        rates[i]->ci_high = p[i] + half;
    }
    est.log2_likelihood = f0;
    return est;
}

struct MleCase {
    unsigned bits;
    std::size_t len;
    std::size_t block_len;
    DiChannelParams channel;
};

// Alphabets 2, 4 and 8; sent lengths that leave a ragged tail block
// (1000 = 3 x 256 + 232, 730 = 7 x 100 + 30, 900 = 14 x 64 + 4, and
// 2100 = 56 x 37 + 28, which the 2048-symbol cap cuts to 56 full
// blocks); block lengths below 256; and a clean channel. Case i draws its
// sent trace from seed 70 + i and its channel from seed 80 + i.
const std::vector<MleCase> kMleCases = {
    {1, 1000, 512, {0.10, 0.05, 0.02, 1}}, {2, 730, 100, {0.08, 0.04, 0.03, 2}},
    {3, 900, 64, {0.05, 0.10, 0.05, 3}},   {1, 2100, 37, {0.12, 0.02, 0.0, 1}},
    {2, 600, 512, {0.0, 0.0, 0.0, 2}},
};

/// A trace pair built as `ccap simulate --seed seed` builds it: the sent
/// symbols from Rng(seed), the channel seeded with seed ^ 0xC11.
std::pair<Trace, Trace> simulated_pair(const DiChannelParams& p, std::size_t len,
                                       std::uint64_t seed) {
    ccap::util::Rng rng(seed);
    Trace sent(len);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(p.alphabet()));
    DeletionInsertionChannel ch(p, seed ^ 0xC11);
    Trace received = ch.transduce(sent).output;
    return {std::move(sent), std::move(received)};
}

bool finite_estimate(const ParamEstimate& e) {
    for (const RateEstimate* r : {&e.p_d, &e.p_i, &e.p_s})
        if (!std::isfinite(r->value) || !std::isfinite(r->ci_low) || !std::isfinite(r->ci_high))
            return false;
    return std::isfinite(e.log2_likelihood);
}

TEST(ParamEstimator, MleBatchedSearchBitIdenticalToScalarReference) {
    const auto expect_same = [](const ParamEstimate& got, const ParamEstimate& want) {
        for (const auto& [g, w] : {std::pair{&got.p_d, &want.p_d}, std::pair{&got.p_i, &want.p_i},
                                  std::pair{&got.p_s, &want.p_s}}) {
            EXPECT_EQ(g->value, w->value);
            EXPECT_EQ(g->ci_low, w->ci_low);
            EXPECT_EQ(g->ci_high, w->ci_high);
        }
        EXPECT_EQ(got.channel_uses, want.channel_uses);
        EXPECT_EQ(got.blocks, want.blocks);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.converged, want.converged);
        EXPECT_EQ(got.log2_likelihood, want.log2_likelihood);
    };
    for (std::size_t i = 0; i < kMleCases.size(); ++i) {
        const MleCase& c = kMleCases[i];
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

TEST(ParamEstimator, MleFitIsLocalMaximum) {
    // Moving any one rate of the fit by 2e-3 either way does not raise the
    // objective: the stopping rule leaves the fit on the optimum, not a
    // stopping tolerance away from it.
    for (std::size_t i = 0; i < kMleCases.size(); ++i) {
        const MleCase& c = kMleCases[i];
        SCOPED_TRACE("case " + std::to_string(i));
        const Trace sent = random_trace(c.len, c.bits, 70 + i);
        DeletionInsertionChannel ch(c.channel, 80 + i);
        const Trace received = ch.transduce(sent).output;
        EstimatorOptions opt;
        opt.block_len = c.block_len;
        const ParamEstimate est = estimate_params_mle(sent, received, c.bits, opt);
        const MleBlocks m = mle_blocks(sent, received, c.block_len);
        const std::array<double, 3> fit{est.p_d.value, est.p_i.value, est.p_s.value};
        const double at_fit = mle_objective(m, c.bits, fit);
        EXPECT_EQ(at_fit, est.log2_likelihood);
        for (std::size_t k = 0; k < 3; ++k)
            for (const double delta : {-2e-3, 2e-3}) {
                std::array<double, 3> q = fit;
                q[k] += delta;
                EXPECT_GE(at_fit, mle_objective(m, c.bits, q)) << "rate " << k << " " << delta;
            }
    }
}

TEST(ParamEstimator, MleIntervalsCoverInjectedTruth) {
    // 40 binary pairs of 4096 symbols at (0.10, 0.05, 0.02), seeds 0-39 as
    // `ccap simulate` draws them. A nominal 95% interval should cover the
    // injected rate on about 38 of 40 pairs; at least 34 must.
    const DiChannelParams truth{0.10, 0.05, 0.02, 1};
    std::array<int, 3> covered{};
    for (std::uint64_t seed = 0; seed < 40; ++seed) {
        const auto [sent, received] = simulated_pair(truth, 4096, seed);
        const ParamEstimate est = estimate_params_mle(sent, received, 1);
        const RateEstimate* rates[3] = {&est.p_d, &est.p_i, &est.p_s};
        const double injected[3] = {truth.p_d, truth.p_i, truth.p_s};
        for (std::size_t k = 0; k < 3; ++k)
            covered[k] += rates[k]->ci_low <= injected[k] && injected[k] <= rates[k]->ci_high;
    }
    EXPECT_GE(covered[0], 34) << "P_d";
    EXPECT_GE(covered[1], 34) << "P_i";
    EXPECT_GE(covered[2], 34) << "P_s";
}

TEST(ParamEstimator, MleBoundaryFitsAreFiniteAndConverged) {
    // Rates whose MLE sits at 0: a clean channel (all three), and the
    // BM_ParamMle pair (bench_e11_solvers) with no substitutions.
    const Trace clean = random_trace(2000, 2, 53);
    const ParamEstimate c = estimate_params_mle(clean, clean, 2);
    EXPECT_TRUE(finite_estimate(c));
    EXPECT_TRUE(c.converged);
    EXPECT_GE(c.iterations, 1);

    const DiChannelParams truth{0.1, 0.05, 0.0, 2};
    DeletionInsertionChannel ch(truth, 8);
    ccap::util::Rng rng(9);
    Trace sent(2000);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    const ParamEstimate e = estimate_params_mle(sent, ch.transduce(sent).output, 2);
    EXPECT_TRUE(finite_estimate(e));
    EXPECT_TRUE(e.converged);
    EXPECT_LT(e.p_s.value, 0.01);
    EXPECT_GE(e.p_s.ci_low, 0.0);
}

TEST(ParamEstimator, MleHighNoiseFitStaysInDomainAndClimbs) {
    // At (0.20, 0.10, 0.05) the negated Hessian at the seed is not
    // positive definite, so the first steps run on the shifted matrix.
    const DiChannelParams truth{0.20, 0.10, 0.05, 1};
    const auto [sent, received] = simulated_pair(truth, 4096, 1);
    const ParamEstimate est = estimate_params_mle(sent, received, 1);
    EXPECT_TRUE(finite_estimate(est));
    EXPECT_LE(est.p_d.value + est.p_i.value, 0.9);
    const MleBlocks m = mle_blocks(sent, received, EstimatorOptions{}.block_len);
    const std::array<double, 3> seed = mle_seed(estimate_params(sent, received));
    EXPECT_GE(est.log2_likelihood, mle_objective(m, 1, seed));
}

}  // namespace
