// End-to-end covert channel analysis: traces in, capacity verdict out.
//
// This is the practitioner workflow the paper prescribes in Section 4.3:
//   1. estimate the physical (synchronous-model) capacity with traditional
//      methods — here, the M-ary symmetric capacity at the measured
//      substitution rate;
//   2. estimate P_d (and P_i) from the traces;
//   3. report the corrected capacity C * (1 - P_d) together with the
//      Theorem-5 lower / Theorem-1 upper band;
//   4. classify severity following the NCSC-TG-030 ("Light Pink Book")
//      style bandwidth thresholds used in TCSEC covert channel analysis.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "ccap/core/capacity_bounds.hpp"
#include "ccap/estimate/param_estimator.hpp"

namespace ccap::estimate {

enum class Severity : std::uint8_t {
    negligible,   ///< under 0.1 bit/s: generally tolerable
    marginal,     ///< 0.1 - 1 bit/s: document
    significant,  ///< 1 - 100 bit/s: must be auditable
    severe,       ///< over 100 bit/s: unacceptable in TCSEC terms
};

[[nodiscard]] const char* severity_name(Severity s) noexcept;
[[nodiscard]] Severity classify_bandwidth(double bits_per_second) noexcept;

/// The estimator analyze_traces runs (`ccap analyze --estimator mle|align`).
enum class EstimatorKind : std::uint8_t {
    mle,        ///< drift-HMM maximum likelihood, Newton fit (default; consistent)
    alignment,  ///< edit-distance only (fast; biased under mixed indels)
};

struct AnalyzerConfig {
    unsigned bits_per_symbol = 1;
    /// Channel uses (sender opportunities) per wall-clock second; converts
    /// bits/use into bits/second for the severity classification.
    double uses_per_second = 100.0;
    EstimatorKind estimator_kind = EstimatorKind::mle;
    EstimatorOptions estimator;
};

struct AnalysisReport {
    ParamEstimate params;
    /// Traditional synchronous-model capacity (bits/use): M-ary symmetric
    /// capacity at the measured substitution rate.
    double traditional_bits_per_use = 0.0;
    /// Paper band for the non-synchronous channel (bits/use).
    core::CapacityBand band_bits_per_use;
    /// Section 4.3 recipe: traditional * (1 - P_d).
    double degraded_bits_per_use = 0.0;
    double degraded_bits_per_second = 0.0;
    Severity severity = Severity::negligible;
};

/// Analyze a sent/received trace pair.
[[nodiscard]] AnalysisReport analyze_traces(std::span<const std::uint32_t> sent,
                                            std::span<const std::uint32_t> received,
                                            const AnalyzerConfig& config);

/// Analyze from known channel parameters (no traces needed).
[[nodiscard]] AnalysisReport analyze_params(const core::DiChannelParams& params,
                                            double uses_per_second);

// ---------------------------------------------------------------------------
// The "informal method described in [3]" (NCSC-TG-030, following Tsai &
// Gligor): estimate covert-channel bandwidth from measured operation
// timings instead of an information-theoretic model. The paper's point is
// that this estimate, like the Shannon-model one, silently assumes
// synchchrony — so the same (1 - P_d) correction applies on top.
// ---------------------------------------------------------------------------

struct InformalTimings {
    double bits_per_transfer = 1.0;  ///< b: bits moved per exploit cycle
    double sender_op_seconds = 0.0;  ///< T_s: sender's alter-attribute time
    double receiver_op_seconds = 0.0;  ///< T_r: receiver's sense-attribute time
    double context_switch_seconds = 0.0;  ///< T_cs: one context switch

    void validate() const;
};

/// Tsai-Gligor style informal bandwidth: b / (T_s + T_r + 2*T_cs) bits/s
/// (each cycle alters, switches, senses, switches back).
[[nodiscard]] double informal_bandwidth(const InformalTimings& timings);

/// The paper's corrected informal estimate: informal_bandwidth * (1 - P_d).
[[nodiscard]] double corrected_informal_bandwidth(const InformalTimings& timings,
                                                  const core::DiChannelParams& params);

}  // namespace ccap::estimate
