#include "ccap/estimate/analyzer.hpp"

#include <algorithm>
#include <stdexcept>

#include "ccap/info/entropy.hpp"

namespace ccap::estimate {

const char* severity_name(Severity s) noexcept {
    switch (s) {
        case Severity::negligible: return "negligible";
        case Severity::marginal: return "marginal";
        case Severity::significant: return "significant";
        case Severity::severe: return "severe";
    }
    return "unknown";
}

Severity classify_bandwidth(double bits_per_second) noexcept {
    if (bits_per_second >= 100.0) return Severity::severe;
    if (bits_per_second >= 1.0) return Severity::significant;
    if (bits_per_second >= 0.1) return Severity::marginal;
    return Severity::negligible;
}

namespace {

AnalysisReport finish_report(const core::DiChannelParams& params, double uses_per_second,
                             AnalysisReport report) {
    params.validate();
    if (!(uses_per_second > 0.0))
        throw std::domain_error("analyze: uses_per_second must be > 0");
    // Traditional (synchronous) estimate: the channel is an M-ary symmetric
    // DMC at the substitution rate; deletions/insertions are invisible to
    // this model — exactly the overestimate the paper corrects.
    const double n = static_cast<double>(params.bits_per_symbol);
    report.traditional_bits_per_use =
        params.p_s <= 0.0
            ? n
            : std::max(0.0, info::mary_symmetric_capacity(params.p_s, params.alphabet()));
    report.band_bits_per_use = core::capacity_band(params);
    report.degraded_bits_per_use =
        core::degraded_capacity(report.traditional_bits_per_use, params);
    report.degraded_bits_per_second = report.degraded_bits_per_use * uses_per_second;
    report.severity = classify_bandwidth(report.degraded_bits_per_second);
    return report;
}

}  // namespace

AnalysisReport analyze_traces(std::span<const std::uint32_t> sent,
                              std::span<const std::uint32_t> received,
                              const AnalyzerConfig& config) {
    AnalysisReport report;
    // The likelihood-based estimator needs byte-sized symbols; wider
    // alphabets fall back to alignment.
    const bool likelihood_ok = config.bits_per_symbol <= 8;
    switch (config.estimator_kind) {
        case EstimatorKind::mle:
            report.params = likelihood_ok
                                ? estimate_params_mle(sent, received, config.bits_per_symbol,
                                                      config.estimator)
                                : estimate_params(sent, received, config.estimator);
            break;
        case EstimatorKind::alignment:
            report.params = estimate_params(sent, received, config.estimator);
            break;
    }
    const core::DiChannelParams params = report.params.params(config.bits_per_symbol);
    return finish_report(params, config.uses_per_second, std::move(report));
}

AnalysisReport analyze_params(const core::DiChannelParams& params, double uses_per_second) {
    AnalysisReport report;
    report.params.p_d = {params.p_d, params.p_d, params.p_d};
    report.params.p_i = {params.p_i, params.p_i, params.p_i};
    report.params.p_s = {params.p_s, params.p_s, params.p_s};
    return finish_report(params, uses_per_second, std::move(report));
}

void InformalTimings::validate() const {
    if (!(bits_per_transfer > 0.0))
        throw std::domain_error("InformalTimings: bits_per_transfer must be > 0");
    if (sender_op_seconds < 0.0 || receiver_op_seconds < 0.0 || context_switch_seconds < 0.0)
        throw std::domain_error("InformalTimings: negative timing");
    if (sender_op_seconds + receiver_op_seconds + context_switch_seconds <= 0.0)
        throw std::domain_error("InformalTimings: cycle time must be > 0");
}

double informal_bandwidth(const InformalTimings& timings) {
    timings.validate();
    const double cycle = timings.sender_op_seconds + timings.receiver_op_seconds +
                         2.0 * timings.context_switch_seconds;
    return timings.bits_per_transfer / cycle;
}

double corrected_informal_bandwidth(const InformalTimings& timings,
                                    const core::DiChannelParams& params) {
    return core::degraded_capacity(informal_bandwidth(timings), params);
}

}  // namespace ccap::estimate
