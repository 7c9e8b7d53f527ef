// Integration: Monte-Carlo validation of the paper's theorems against the
// executable channel and protocols — the test-suite mirror of benches E1-E4.
#include <gtest/gtest.h>

#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/erasure_channel.hpp"
#include "ccap/core/feedback_protocols.hpp"
#include "ccap/info/blahut_arimoto.hpp"
#include "ccap/info/deletion_bounds.hpp"

namespace {

using namespace ccap;

std::vector<std::uint32_t> message(std::size_t n, unsigned bits, std::uint64_t seed) {
    util::Rng rng(seed);
    std::vector<std::uint32_t> m(n);
    for (auto& s : m) s = static_cast<std::uint32_t>(rng.uniform_below(1ULL << bits));
    return m;
}

TEST(Theorem1, ErasureViewInformationHitsTheBound) {
    // The matched erasure channel (Definition 2) delivers exactly
    // N(1 - P_d) bits per use in expectation — the Theorem-1 bound is the
    // *capacity* of that side-information channel.
    for (double pd : {0.1, 0.3, 0.5}) {
        const core::DiChannelParams p{pd, 0.0, 0.0, 4};
        core::DeletionInsertionChannel ch(p, 31);
        const auto msg = message(20000, 4, 31);
        const auto t = ch.transduce(msg);
        const auto view = core::erasure_view(t);
        const double bits_per_use =
            core::erasure_view_information_bits(view, 4) / static_cast<double>(t.channel_uses);
        EXPECT_NEAR(bits_per_use, core::theorem1_upper_bound(p), 0.05) << "pd=" << pd;
    }
}

TEST(Theorem1, BlahutArimotoAgreesOnErasureCapacity) {
    // N(1-P_d) is exactly the BA capacity of the M-ary erasure DMC.
    for (double pd : {0.05, 0.2, 0.4}) {
        const core::DiChannelParams p{pd, 0.0, 0.0, 3};
        const auto ba = info::blahut_arimoto(info::make_mary_erasure(8, pd));
        EXPECT_NEAR(ba.capacity, core::theorem1_upper_bound(p), 1e-6);
    }
}

TEST(Theorem1, NoFeedbackMiRateStaysBelowBound) {
    // The no-feedback achievable rate (drift-lattice Monte Carlo) must sit
    // below the erasure upper bound — the side information is worth
    // something.
    util::Rng rng(32);
    for (double pd : {0.1, 0.2}) {
        info::DriftParams dp;
        dp.p_d = pd;
        const auto est = info::iid_mutual_information_rate(dp, {96, 16}, rng);
        EXPECT_LT(est.rate, info::erasure_upper_bound(pd) + 0.02) << "pd=" << pd;
    }
}

TEST(Theorem3, StopAndWaitAchievesErasureCapacity) {
    for (double pd : {0.1, 0.3, 0.6}) {
        const core::DiChannelParams p{pd, 0.0, 0.0, 1};
        core::DeletionInsertionChannel ch(p, 33);
        const auto msg = message(30000, 1, 33);
        const auto run = core::run_stop_and_wait(ch, msg);
        ASSERT_TRUE(run.reliable);
        EXPECT_NEAR(run.measured_info_rate(1), core::theorem3_feedback_capacity(p), 0.02)
            << "pd=" << pd;
    }
}

TEST(Theorem5, MeasuredCounterProtocolInsideTheBand) {
    // The protocol's measured rate lies between 0 and the Theorem-1/4 upper
    // bound, and tracks our exact analysis.
    for (double rate : {0.05, 0.1, 0.15}) {
        const core::DiChannelParams p{rate, rate, 0.0, 4};
        core::DeletionInsertionChannel ch(p, 34);
        const auto msg = message(40000, 4, 34);
        const auto run = core::run_counter_protocol(ch, msg);
        const double measured = run.measured_info_rate(4);
        EXPECT_LE(measured, core::theorem4_upper_bound(p) + 0.05) << "rate=" << rate;
        EXPECT_NEAR(measured, core::counter_protocol_exact_rate(p), 0.08) << "rate=" << rate;
    }
}

TEST(Theorem5, ConvergenceRatioApproachesOne) {
    // eq (7) empirically: measured protocol efficiency (relative to the
    // erasure bound) grows with N.
    const double rate = 0.05;
    double prev = 0.0;
    for (unsigned n : {1U, 4U, 8U}) {
        const core::DiChannelParams p{rate, rate, 0.0, n};
        core::DeletionInsertionChannel ch(p, 35);
        const auto msg = message(30000, n, 35);
        const auto run = core::run_counter_protocol(ch, msg);
        const double ratio = run.measured_info_rate(n) / core::theorem1_upper_bound(p);
        EXPECT_GT(ratio, prev - 0.02) << "n=" << n;
        prev = ratio;
    }
    EXPECT_GT(prev, 0.85);
}

TEST(Erasure, SideInformationHasPositiveValue) {
    // Same realization, with vs without location knowledge: the erasure
    // view always recovers at least as many exact symbols as blind
    // consumption of the raw output stream.
    const core::DiChannelParams p{0.2, 0.2, 0.0, 2};
    core::DeletionInsertionChannel ch(p, 36);
    const auto msg = message(10000, 2, 36);
    const auto t = ch.transduce(msg);
    const auto view = core::erasure_view(t);

    std::size_t erasure_correct = 0;
    for (std::size_t i = 0; i < msg.size(); ++i)
        if (view.symbols[i] && *view.symbols[i] == msg[i]) ++erasure_correct;
    std::size_t blind_correct = 0;
    for (std::size_t i = 0; i < std::min(msg.size(), t.output.size()); ++i)
        if (t.output[i] == msg[i]) ++blind_correct;
    EXPECT_GT(erasure_correct, blind_correct);
}

TEST(DegradationRecipe, ProportionalToPd) {
    // Section 4.3: degradation is proportional to P_d; doubling P_d doubles
    // the capacity loss.
    const double c = 5.0;
    const double loss1 = c - core::degraded_capacity(c, {0.1, 0.0, 0.0, 4});
    const double loss2 = c - core::degraded_capacity(c, {0.2, 0.0, 0.0, 4});
    EXPECT_NEAR(loss2, 2.0 * loss1, 1e-12);
}

}  // namespace
