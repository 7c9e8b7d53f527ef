// Plain-text rendering of analysis results, shared by the examples and the
// bench harnesses so every binary reports in the same format.
#pragma once

#include <string>

#include "ccap/estimate/analyzer.hpp"

namespace ccap::estimate {

/// Multi-line human-readable report.
[[nodiscard]] std::string render_report(const AnalysisReport& report, const std::string& title);

}  // namespace ccap::estimate
