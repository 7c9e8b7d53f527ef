// Integration: the full practitioner pipeline of Section 4.3 —
// scheduler simulation -> covert traces -> parameter estimation ->
// capacity bounds -> severity — plus cross-checks between the sched-level
// and core-level models of the same mechanisms.
#include <gtest/gtest.h>

#include "ccap/core/capacity_bounds.hpp"
#include "ccap/core/protocol_analysis.hpp"
#include "ccap/estimate/analyzer.hpp"
#include "ccap/sched/covert_pair.hpp"
#include "ccap/sched/mls_system.hpp"

namespace {

using namespace ccap;

TEST(Pipeline, SchedulerTracesToCapacityVerdict) {
    // 1. Simulate the paper's Section 3.1 uniprocessor covert channel under
    //    a memoryless random scheduler.
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::naive;
    cfg.message_len = 8000;
    cfg.bits_per_symbol = 3;
    const auto run = sched::run_covert_pair(sched::make_random(), cfg, 21);

    // 2-4. Estimate parameters, compute the paper's bounds, classify.
    estimate::AnalyzerConfig acfg;
    acfg.bits_per_symbol = 3;
    acfg.uses_per_second = 100.0;
    const auto report = estimate::analyze_traces(run.sent, run.received, acfg);

    // A fair memoryless scheduler produces both deletions and insertions at
    // clearly nonzero rates.
    EXPECT_GT(report.params.p_d.value, 0.05);
    EXPECT_GT(report.params.p_i.value, 0.05);
    // The corrected capacity is strictly below the traditional estimate.
    EXPECT_LT(report.degraded_bits_per_use, report.traditional_bits_per_use);
    // Band ordering holds on real (estimated) parameters too.
    EXPECT_LE(report.band_bits_per_use.lower, report.band_bits_per_use.upper + 1e-9);
}

TEST(Pipeline, RoundRobinSchedulerIsNearlySynchronous) {
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::naive;
    cfg.message_len = 4000;
    const auto run = sched::run_covert_pair(sched::make_round_robin(), cfg, 22);
    const auto est = estimate::estimate_params(run.sent, run.received);
    // Perfect alternation: essentially no deletions/insertions.
    EXPECT_LT(est.p_d.value, 0.01);
    EXPECT_LT(est.p_i.value, 0.01);
}

TEST(Pipeline, FuzzierSchedulersAdmitLessCapacity) {
    // Section 3.2: "Our method can be used to evaluate the effectiveness of
    // candidate system implementations, e.g., the scheduler, in reducing
    // covert channel capacities." More scheduling randomness -> higher P_d
    // -> lower corrected capacity.
    double prev_capacity = 1e9;
    for (double eps : {0.0, 0.5, 1.0}) {
        sched::CovertPairConfig cfg;
        cfg.mode = sched::PairMode::naive;
        cfg.message_len = 6000;
        const auto run =
            sched::run_covert_pair(sched::make_fuzzy_round_robin(eps), cfg, 23);
        const auto est = estimate::estimate_params(run.sent, run.received);
        const double cap = core::degraded_capacity(1.0, est.params(1));
        EXPECT_LT(cap, prev_capacity + 0.02) << "eps=" << eps;
        prev_capacity = cap;
    }
}

TEST(Pipeline, HandshakeThroughputMatchesCoreAnalysis) {
    // The sched-level Fig-1 handshake and the core-level closed form are
    // independent implementations of the same mechanism.
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::handshake;
    cfg.message_len = 6000;
    const auto run = sched::run_covert_pair(sched::make_random(), cfg, 24);
    ASSERT_TRUE(run.reliable);
    EXPECT_NEAR(run.symbols_per_quantum(), core::handshake_expected_throughput(0.5), 0.02);
}

TEST(Pipeline, MlsFeedbackBeatsNoFeedbackInDeliveredSecrets) {
    sched::MlsConfig with;
    with.message_len = 3000;
    with.use_legal_feedback = true;
    sched::MlsConfig without = with;
    without.use_legal_feedback = false;

    const auto fb = sched::run_mls_exfiltration(sched::make_random(), with, 25);
    const auto raw = sched::run_mls_exfiltration(sched::make_random(), without, 25);
    EXPECT_TRUE(fb.exact);
    EXPECT_FALSE(raw.exact);
    // Correct-prefix goodput collapses almost immediately without feedback.
    EXPECT_GT(fb.goodput(), raw.goodput());
}

TEST(Pipeline, NaiveSchedulerChannelMatchesClosedForm) {
    // Cross-layer validation: the closed-form Definition-1 parameters of
    // the naive pair under a memoryless scheduler
    // (naive_scheduler_channel_params) should match what the MLE estimator
    // recovers from an actual scheduler simulation. 4-bit symbols keep the
    // alignment/likelihood nearly unambiguous.
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::naive;
    cfg.message_len = 8000;
    cfg.bits_per_symbol = 4;
    const auto run = sched::run_covert_pair(sched::make_random(), cfg, 27);
    // Ground-truth event rates from the simulation itself.
    const double uses =
        static_cast<double>(run.deletions + run.insertions + run.transmissions);
    const auto theory = core::naive_scheduler_channel_params(0.5, 4);
    EXPECT_NEAR(static_cast<double>(run.deletions) / uses, theory.p_d, 0.02);
    EXPECT_NEAR(static_cast<double>(run.insertions) / uses, theory.p_i, 0.02);
    EXPECT_NEAR(static_cast<double>(run.transmissions) / uses, theory.p_t(), 0.02);
    // The Definition-1 MLE sees the same events but through a misspecified
    // emission model (scheduler "insertions" are duplicates, not uniform
    // symbols), so it lands near — not on — the closed form. On this run
    // the converged MLE is (P_d, P_i, P_s) = (0.469, 0.345, 0.000): P_d
    // lies 0.14 above the closed form, P_i 0.01 from it. Documented
    // model-mismatch band:
    const auto est = estimate::estimate_params_mle(run.sent, run.received, 4);
    EXPECT_TRUE(est.converged);
    EXPECT_GT(est.p_d.value, theory.p_d);
    EXPECT_LT(est.p_d.value, theory.p_d + 0.15);
    EXPECT_NEAR(est.p_i.value, theory.p_i, 0.10);
}

TEST(Pipeline, NaiveSchedulerClosedFormProperties) {
    // Sanity of the mapping itself.
    const auto mid = core::naive_scheduler_channel_params(0.5, 1);
    EXPECT_NEAR(mid.p_d, 1.0 / 3.0, 1e-12);
    EXPECT_NEAR(mid.p_i, 1.0 / 3.0, 1e-12);
    // A starved receiver mostly deletes; a starved sender mostly inserts.
    const auto sender_heavy = core::naive_scheduler_channel_params(0.9, 1);
    EXPECT_GT(sender_heavy.p_d, 0.7);
    const auto receiver_heavy = core::naive_scheduler_channel_params(0.1, 1);
    EXPECT_GT(receiver_heavy.p_i, 0.7);
    // Symmetry: swapping shares swaps deletion and insertion rates.
    EXPECT_NEAR(sender_heavy.p_d, receiver_heavy.p_i, 1e-12);
}

TEST(Pipeline, MlfqSchedulerInPolicySweep) {
    // The MLFQ policy slots into the same covert-pair machinery.
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::naive;
    cfg.message_len = 3000;
    const auto run = sched::run_covert_pair(sched::make_mlfq(), cfg, 28);
    EXPECT_EQ(run.sent.size(), 3000U);
    const auto est = estimate::estimate_params(run.sent, run.received);
    // Two always-runnable processes under MLFQ degenerate to round-robin
    // (same level, RR within level): essentially synchronous.
    EXPECT_LT(est.p_d.value, 0.02);
    EXPECT_LT(est.p_i.value, 0.02);
}

TEST(Pipeline, NaiveChannelEstimateFeedsTheorem5Band) {
    // Estimated scheduler-channel parameters plugged into the Theorem-5 /
    // Theorem-1 band behave like the analytic ones.
    sched::CovertPairConfig cfg;
    cfg.mode = sched::PairMode::naive;
    cfg.message_len = 8000;
    const auto run = sched::run_covert_pair(sched::make_random(), cfg, 26);
    const auto est = estimate::estimate_params(run.sent, run.received);
    const auto band = core::capacity_band(est.params(1));
    EXPECT_GT(band.upper, 0.0);
    EXPECT_LE(band.lower, band.upper + 1e-9);
    EXPECT_LE(band.exact_protocol, band.upper + 1e-9);
}

}  // namespace
