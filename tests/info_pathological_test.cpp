// Pathological-input suite: the robustness contract is that NaN never
// escapes the drift HMM or the Monte-Carlo estimators. Inputs that cannot
// be processed are rejected up front with typed exceptions (validate); for
// inputs that pass validation but have zero or vanishing probability, the
// lattice must return a clean -inf (or a finite value), never NaN.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"

namespace {

using namespace ccap::info;

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

bool clean(double x) { return std::isfinite(x) || x == -kInf; }

/// Point priors: row j puts all its mass on tx[j].
ccap::util::Matrix one_hot(const std::vector<std::uint8_t>& tx, std::size_t alphabet) {
    ccap::util::Matrix priors(tx.size(), alphabet);
    for (std::size_t j = 0; j < tx.size(); ++j) priors(j, tx[j]) = 1.0;
    return priors;
}

bool any_nan(const ccap::util::Matrix& m) {
    for (std::size_t i = 0; i < m.rows(); ++i)
        for (std::size_t s = 0; s < m.cols(); ++s)
            if (std::isnan(m(i, s))) return true;
    return false;
}

DriftParams base_params() {
    DriftParams p;
    p.p_d = 0.1;
    p.p_i = 0.1;
    p.p_s = 0.05;
    return p;
}

TEST(PathologicalInputs, DriftParamsValidateRejectsNaNAndInf) {
    for (auto poison : {kNan, kInf, -kNan}) {
        DriftParams p = base_params();
        p.p_d = poison;
        EXPECT_THROW(p.validate(), std::domain_error);
        p = base_params();
        p.p_i = poison;
        EXPECT_THROW(p.validate(), std::domain_error);
        p = base_params();
        p.p_s = poison;
        EXPECT_THROW(p.validate(), std::domain_error);
    }
}

TEST(PathologicalInputs, DriftParamsValidateCapsAlphabetAtOneByte) {
    // The lattices and the channel simulator hold one symbol per byte: a
    // 257-symbol alphabet would silently wrap its draws.
    DriftParams p = base_params();
    p.alphabet = 256;
    EXPECT_NO_THROW(p.validate());
    p.alphabet = 257;
    EXPECT_THROW(p.validate(), std::domain_error);
    EXPECT_THROW((void)DriftHmm(p), std::domain_error);
    McOptions opts;
    opts.block_len = 8;
    opts.num_blocks = 2;
    ccap::util::Rng rng(1);
    EXPECT_THROW((void)iid_mutual_information_rate(p, opts, rng), std::domain_error);
}

TEST(PathologicalInputs, NaNParamsNeverReachTheLattice) {
    DriftParams p = base_params();
    p.p_d = kNan;
    EXPECT_THROW((void)DriftHmm(p), std::domain_error);
}

TEST(PathologicalInputs, MarkovSourceValidateRejectsNaN) {
    MarkovSource s = MarkovSource::binary_repeat(0.7);
    s.initial[0] = kNan;
    s.initial[1] = 1.0;  // sum is NaN: must still be rejected
    EXPECT_THROW(s.validate(2), std::domain_error);
    s = MarkovSource::binary_repeat(0.7);
    s.transition(0, 0) = kNan;
    EXPECT_THROW(s.validate(2), std::domain_error);
}

TEST(PathologicalInputs, ImpossibleObservationIsCleanNegInfinity) {
    // p_i = 0 and p_s = 0: a received string longer than the transmitted
    // one, or with a flipped symbol, has probability exactly 0.
    DriftParams p;
    p.p_d = 0.2;
    DriftHmm hmm(p);
    const std::vector<std::uint8_t> tx{0, 0, 0, 0};
    const std::vector<std::uint8_t> longer{0, 0, 0, 0, 0, 0};
    const std::vector<std::uint8_t> flipped{1, 1, 1, 1};
    EXPECT_EQ(hmm.log2_likelihood(tx, longer), -kInf);
    EXPECT_EQ(hmm.log2_likelihood(tx, flipped), -kInf);
    // The forward-backward pass on point priors of tx sees the same dead
    // lattice, and its backward sweep must not turn it into NaN.
    double evidence = 0.0;
    const ccap::util::Matrix post = hmm.posteriors(one_hot(tx, 2), flipped, &evidence);
    EXPECT_EQ(evidence, -kInf);
    EXPECT_FALSE(any_nan(post));
}

TEST(PathologicalInputs, ExtremeProbabilitiesStayClean) {
    // Near-degenerate but valid parameters: the per-row normalization must
    // keep every evidence finite or -inf over a long sequence.
    for (auto [pd, pi, ps] : {std::tuple{1e-300, 1e-300, 1e-300},
                              std::tuple{0.498, 0.498, 0.999},
                              std::tuple{1e-12, 0.9, 0.0},
                              std::tuple{0.9, 1e-12, 1.0}}) {
        DriftParams p;
        p.p_d = pd;
        p.p_i = pi;
        p.p_s = ps;
        p.validate();
        DriftHmm hmm(p);
        std::vector<std::uint8_t> tx(200), rx(200);
        for (std::size_t i = 0; i < tx.size(); ++i) {
            tx[i] = static_cast<std::uint8_t>(i % 2);
            rx[i] = static_cast<std::uint8_t>((i / 3) % 2);
        }
        const double ll = hmm.log2_likelihood(tx, rx);
        EXPECT_TRUE(clean(ll)) << "pd=" << pd << " pi=" << pi << " ps=" << ps
                               << " ll=" << ll;
        double evidence = 0.0;
        const ccap::util::Matrix post = hmm.posteriors(one_hot(tx, 2), rx, &evidence);
        EXPECT_TRUE(clean(evidence));
        EXPECT_FALSE(any_nan(post));
    }
}

TEST(PathologicalInputs, PosteriorsOnZeroLikelihoodRowsAreFiniteDistributions) {
    // When every path dies the posterior falls back to the prior instead of
    // dividing by zero.
    DriftParams p;
    p.p_d = 0.2;
    DriftHmm hmm(p);
    ccap::util::Matrix priors(4, 2);
    for (std::size_t i = 0; i < 4; ++i) {
        priors(i, 0) = 1.0;  // prior says all-zeros...
        priors(i, 1) = 0.0;
    }
    const std::vector<std::uint8_t> rx{1, 1, 1, 1};  // ...observation says all-ones
    const ccap::util::Matrix post = hmm.posteriors(priors, rx);
    for (std::size_t i = 0; i < post.rows(); ++i) {
        double sum = 0.0;
        for (std::size_t s = 0; s < post.cols(); ++s) {
            EXPECT_FALSE(std::isnan(post(i, s))) << i << "," << s;
            EXPECT_GE(post(i, s), 0.0);
            sum += post(i, s);
        }
        EXPECT_NEAR(sum, 1.0, 1e-9) << "row " << i;
    }
}

TEST(PathologicalInputs, McEstimatorNeverEmitsNaN) {
    // Degenerate corners of the parameter space: the MC fold must produce
    // finite rate and SEM (per-block -inf evidences are clamped to a zero
    // information contribution, never propagated as NaN).
    for (auto [pd, pi, ps] : {std::tuple{0.49, 0.49, 0.5},
                              std::tuple{1e-9, 1e-9, 0.999},
                              std::tuple{0.9, 0.05, 0.0}}) {
        DriftParams p;
        p.p_d = pd;
        p.p_i = pi;
        p.p_s = ps;
        p.validate();
        ccap::util::Rng rng(7);
        McOptions opts;
        opts.block_len = 24;
        opts.num_blocks = 8;
        opts.threads = 1;
        const MiEstimate est = iid_mutual_information_rate(p, opts, rng);
        EXPECT_TRUE(std::isfinite(est.rate))
            << "pd=" << pd << " pi=" << pi << " ps=" << ps;
        EXPECT_TRUE(std::isfinite(est.sem));
        EXPECT_EQ(est.blocks, opts.num_blocks);
    }
}

TEST(PathologicalInputs, MarkovMcEstimatorNeverEmitsNaN) {
    DriftParams p;
    p.p_d = 0.45;
    p.p_i = 0.45;
    p.p_s = 0.3;
    p.validate();
    ccap::util::Rng rng(11);
    McOptions opts;
    opts.block_len = 20;
    opts.num_blocks = 6;
    opts.threads = 1;
    const MiEstimate est =
        markov_mutual_information_rate(p, MarkovSource::binary_repeat(0.95), opts, rng);
    EXPECT_TRUE(std::isfinite(est.rate));
    EXPECT_TRUE(std::isfinite(est.sem));
}

}  // namespace
