#include "ccap/estimate/analyzer.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "ccap/core/deletion_insertion_channel.hpp"
#include "ccap/estimate/report.hpp"

namespace {

using namespace ccap::estimate;
using ccap::core::DeletionInsertionChannel;
using ccap::core::DiChannelParams;
using Trace = std::vector<std::uint32_t>;

TEST(Severity, Thresholds) {
    EXPECT_EQ(classify_bandwidth(0.0), Severity::negligible);
    EXPECT_EQ(classify_bandwidth(0.09), Severity::negligible);
    EXPECT_EQ(classify_bandwidth(0.1), Severity::marginal);
    EXPECT_EQ(classify_bandwidth(0.99), Severity::marginal);
    EXPECT_EQ(classify_bandwidth(1.0), Severity::significant);
    EXPECT_EQ(classify_bandwidth(99.0), Severity::significant);
    EXPECT_EQ(classify_bandwidth(100.0), Severity::severe);
}

TEST(Severity, Names) {
    EXPECT_STREQ(severity_name(Severity::negligible), "negligible");
    EXPECT_STREQ(severity_name(Severity::severe), "severe");
}

TEST(AnalyzeParams, NoiselessSynchronousChannel) {
    const DiChannelParams p{0.0, 0.0, 0.0, 1};
    const AnalysisReport r = analyze_params(p, 10.0);
    EXPECT_DOUBLE_EQ(r.traditional_bits_per_use, 1.0);
    EXPECT_DOUBLE_EQ(r.degraded_bits_per_use, 1.0);
    EXPECT_DOUBLE_EQ(r.degraded_bits_per_second, 10.0);
    EXPECT_EQ(r.severity, Severity::significant);
}

TEST(AnalyzeParams, DeletionDegradesCapacity) {
    const DiChannelParams p{0.3, 0.0, 0.0, 2};
    const AnalysisReport r = analyze_params(p, 100.0);
    EXPECT_DOUBLE_EQ(r.traditional_bits_per_use, 2.0);
    EXPECT_DOUBLE_EQ(r.degraded_bits_per_use, 1.4);  // 2 * (1 - 0.3)
    EXPECT_DOUBLE_EQ(r.band_bits_per_use.upper, 1.4);
    EXPECT_EQ(r.severity, Severity::severe);  // 140 b/s
}

TEST(AnalyzeParams, SubstitutionLowersTraditionalCapacity) {
    const DiChannelParams p{0.0, 0.0, 0.2, 1};
    const AnalysisReport r = analyze_params(p, 1.0);
    EXPECT_LT(r.traditional_bits_per_use, 1.0);
    EXPECT_GT(r.traditional_bits_per_use, 0.0);
}

TEST(AnalyzeParams, Validation) {
    const DiChannelParams p{0.1, 0.0, 0.0, 1};
    EXPECT_THROW((void)analyze_params(p, 0.0), std::domain_error);
}

TEST(AnalyzeTraces, EndToEndOnSimulatedChannel) {
    const DiChannelParams truth{0.2, 0.05, 0.0, 3};
    DeletionInsertionChannel ch(truth, 11);
    ccap::util::Rng rng(12);
    Trace sent(12000);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(8));
    const auto transduction = ch.transduce(sent);

    AnalyzerConfig cfg;
    cfg.bits_per_symbol = 3;
    cfg.uses_per_second = 50.0;
    const AnalysisReport r = analyze_traces(sent, transduction.output, cfg);

    EXPECT_NEAR(r.params.p_d.value, 0.2, 0.02);
    EXPECT_NEAR(r.params.p_i.value, 0.05, 0.02);
    // Degraded capacity ~ 3 * 0.8 = 2.4 bits/use = 120 b/s -> severe.
    EXPECT_NEAR(r.degraded_bits_per_use, 2.4, 0.1);
    EXPECT_EQ(r.severity, Severity::severe);
    // Band ordering.
    EXPECT_LE(r.band_bits_per_use.lower, r.band_bits_per_use.upper + 1e-12);
}

TEST(AnalyzeTraces, SlowChannelIsNegligible) {
    const Trace sent = {1, 0, 1, 1};
    AnalyzerConfig cfg;
    cfg.uses_per_second = 0.01;  // one use per 100 s
    const AnalysisReport r = analyze_traces(sent, sent, cfg);
    EXPECT_EQ(r.severity, Severity::negligible);
}

TEST(InformalMethod, TsaiGligorFormula) {
    InformalTimings t;
    t.bits_per_transfer = 1.0;
    t.sender_op_seconds = 0.001;
    t.receiver_op_seconds = 0.001;
    t.context_switch_seconds = 0.004;
    // 1 / (0.001 + 0.001 + 2*0.004) = 100 b/s.
    EXPECT_NEAR(informal_bandwidth(t), 100.0, 1e-9);
    // Multi-bit transfers scale linearly.
    t.bits_per_transfer = 8.0;
    EXPECT_NEAR(informal_bandwidth(t), 800.0, 1e-9);
}

TEST(InformalMethod, CorrectionAppliesOnTop) {
    InformalTimings t;
    t.bits_per_transfer = 1.0;
    t.sender_op_seconds = 0.005;
    t.receiver_op_seconds = 0.005;
    const DiChannelParams p{0.25, 0.0, 0.0, 1};
    EXPECT_NEAR(corrected_informal_bandwidth(t, p), informal_bandwidth(t) * 0.75, 1e-9);
}

TEST(InformalMethod, Validation) {
    InformalTimings t;
    t.bits_per_transfer = 0.0;
    t.sender_op_seconds = 0.001;
    EXPECT_THROW((void)informal_bandwidth(t), std::domain_error);
    t.bits_per_transfer = 1.0;
    t.sender_op_seconds = -0.1;
    EXPECT_THROW((void)informal_bandwidth(t), std::domain_error);
    t.sender_op_seconds = 0.0;
    t.receiver_op_seconds = 0.0;
    t.context_switch_seconds = 0.0;
    EXPECT_THROW((void)informal_bandwidth(t), std::domain_error);
}

TEST(InformalMethod, AgreesWithSeverityPipeline) {
    // A channel the informal method rates at ~160 b/s lands in the same
    // severity band the information-theoretic path assigns.
    InformalTimings t;
    t.bits_per_transfer = 2.0;
    t.sender_op_seconds = 0.005;
    t.receiver_op_seconds = 0.0075;
    const DiChannelParams p{0.0, 0.0, 0.0, 2};
    const double informal = corrected_informal_bandwidth(t, p);
    const AnalysisReport report = analyze_params(p, 1.0 / 0.0125);
    EXPECT_NEAR(informal, report.degraded_bits_per_second, 1e-6);
    EXPECT_EQ(classify_bandwidth(informal), report.severity);
}

TEST(Report, RenderContainsKeyNumbers) {
    const DiChannelParams p{0.25, 0.0, 0.0, 1};
    const AnalysisReport r = analyze_params(p, 100.0);
    const std::string text = render_report(r, "unit-test channel");
    EXPECT_NE(text.find("unit-test channel"), std::string::npos);
    EXPECT_NE(text.find("0.2500"), std::string::npos);  // P_d
    EXPECT_NE(text.find("severity"), std::string::npos);
}

}  // namespace
