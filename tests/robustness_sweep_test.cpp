// Seed-sweep robustness: the end-to-end pipelines re-run under many RNG
// seeds so single-seed flukes can't hide behaviour regressions. Each case
// is cheap; the sweep breadth is the point.
#include <gtest/gtest.h>

#include "ccap/coding/stack_decoder.hpp"
#include "ccap/coding/vt_code.hpp"
#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/feedback_protocols.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/sched/covert_pair.hpp"
#include "ccap/sched/mls_system.hpp"

namespace {

using namespace ccap;

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, StopAndWaitAlwaysReliable) {
    const std::uint64_t seed = GetParam();
    core::DeletionInsertionChannel ch({0.35, 0.0, 0.0, 2}, seed);
    util::Rng rng(seed ^ 1);
    std::vector<std::uint32_t> msg(3000);
    for (auto& s : msg) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    const auto run = core::run_stop_and_wait(ch, msg);
    EXPECT_TRUE(run.reliable);
    EXPECT_NEAR(run.measured_info_rate(2), 1.3, 0.08);  // 2*(1-0.35)
}

TEST_P(SeedSweep, CounterProtocolRateStable) {
    const std::uint64_t seed = GetParam();
    const core::DiChannelParams p{0.1, 0.1, 0.0, 2};
    core::DeletionInsertionChannel ch(p, seed);
    util::Rng rng(seed ^ 2);
    std::vector<std::uint32_t> msg(8000);
    for (auto& s : msg) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    const auto run = core::run_counter_protocol(ch, msg);
    EXPECT_NEAR(run.measured_info_rate(2), core::counter_protocol_exact_rate(p), 0.07);
}

TEST_P(SeedSweep, HandshakeCovertPairAlwaysExact) {
    const std::uint64_t seed = GetParam();
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::handshake;
    cfg.message_len = 400;
    const auto run = sched::run_covert_pair(sched::make_random(), cfg, seed);
    EXPECT_TRUE(run.reliable) << "seed " << seed;
}

TEST_P(SeedSweep, MlsFeedbackAlwaysExact) {
    const std::uint64_t seed = GetParam();
    sched::MlsConfig cfg;
    cfg.message_len = 300;
    cfg.use_legal_feedback = true;
    const auto res = sched::run_mls_exfiltration(sched::make_lottery(), cfg, seed);
    EXPECT_TRUE(res.exact) << "seed " << seed;
}

TEST_P(SeedSweep, VtRoundTripUnderSingleIndel) {
    const std::uint64_t seed = GetParam();
    const coding::VtCode vt(14, 0);
    util::Rng rng(seed ^ 3);
    for (int trial = 0; trial < 10; ++trial) {
        const coding::Bits info = coding::random_bits(vt.data_bits(), seed * 31 + trial);
        coding::Bits word = vt.encode(info);
        // Randomly delete or insert one bit.
        if (rng.bernoulli(0.5)) {
            word.erase(word.begin() + static_cast<long>(rng.uniform_below(word.size())));
        } else {
            word.insert(word.begin() + static_cast<long>(rng.uniform_below(word.size() + 1)),
                        static_cast<std::uint8_t>(rng.next() & 1));
        }
        const auto res = vt.decode(word);
        ASSERT_EQ(res.status, coding::VtStatus::ok) << "seed " << seed;
        EXPECT_EQ(res.info, info);
    }
}

TEST_P(SeedSweep, EstimatorWithinTolerance) {
    const std::uint64_t seed = GetParam();
    const core::DiChannelParams truth{0.12, 0.06, 0.0, 3};
    core::DeletionInsertionChannel ch(truth, seed);
    util::Rng rng(seed ^ 4);
    std::vector<std::uint32_t> sent(4000);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(8));
    const auto t = ch.transduce(sent);
    const auto est = estimate::estimate_params_mle(sent, t.output, 3);
    EXPECT_NEAR(est.p_d.value, truth.p_d, 0.03) << "seed " << seed;
    EXPECT_NEAR(est.p_i.value, truth.p_i, 0.03) << "seed " << seed;
}

TEST_P(SeedSweep, StackDecoderCleanAlwaysDecodes) {
    const std::uint64_t seed = GetParam();
    const coding::ConvolutionalCode code({0b111, 0b101}, 3);
    const coding::Bits info = coding::random_bits(64, seed);
    coding::StackDecoderParams sp;
    sp.p_d = 0.01;
    sp.p_i = 0.01;
    const auto res = coding::stack_decode(code, code.encode(info), info.size(), sp);
    ASSERT_TRUE(res.success);
    EXPECT_EQ(res.info, info);
}

TEST_P(SeedSweep, MiRateWithinBounds) {
    const std::uint64_t seed = GetParam();
    info::DriftParams dp;
    dp.p_d = 0.2;
    util::Rng rng(seed ^ 5);
    const auto est = info::iid_mutual_information_rate(dp, {64, 6}, rng);
    EXPECT_GT(est.rate, 0.15) << "seed " << seed;
    EXPECT_LT(est.rate, info::erasure_upper_bound(0.2) + 0.05) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeedSweep,
                         ::testing::Values(1ULL, 7ULL, 42ULL, 1337ULL, 99991ULL,
                                           0xDEADBEEFULL, 0xFEEDFACEULL, 2026ULL));

}  // namespace
