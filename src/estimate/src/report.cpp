#include "ccap/estimate/report.hpp"

#include <cstdio>
#include <sstream>

namespace ccap::estimate {

std::string render_report(const AnalysisReport& report, const std::string& title) {
    std::ostringstream os;
    char line[256];
    os << "=== covert channel analysis: " << title << " ===\n";
    std::snprintf(line, sizeof line,
                  "  P_d = %.4f  [%.4f, %.4f]\n  P_i = %.4f  [%.4f, %.4f]\n"
                  "  P_s = %.4f  [%.4f, %.4f]\n",
                  report.params.p_d.value, report.params.p_d.ci_low, report.params.p_d.ci_high,
                  report.params.p_i.value, report.params.p_i.ci_low, report.params.p_i.ci_high,
                  report.params.p_s.value, report.params.p_s.ci_low, report.params.p_s.ci_high);
    os << line;
    if (report.params.iterations > 0) {
        std::snprintf(line, sizeof line,
                      "  likelihood fit: %d Newton iterations, %s, log2-likelihood %.4f bits\n",
                      report.params.iterations,
                      report.params.converged ? "converged" : "not converged",
                      report.params.log2_likelihood);
        os << line;
    }
    std::snprintf(line, sizeof line,
                  "  traditional (synchronous-model) capacity : %.4f bits/use\n",
                  report.traditional_bits_per_use);
    os << line;
    std::snprintf(line, sizeof line,
                  "  non-synchronous band (Thm5 / exact / Thm1): %.4f / %.4f / %.4f bits/use\n",
                  report.band_bits_per_use.lower, report.band_bits_per_use.exact_protocol,
                  report.band_bits_per_use.upper);
    os << line;
    std::snprintf(line, sizeof line,
                  "  degraded capacity (Sec 4.3, C*(1-P_d))   : %.4f bits/use = %.2f bits/s\n",
                  report.degraded_bits_per_use, report.degraded_bits_per_second);
    os << line;
    os << "  severity (NCSC-TG-030-style)              : " << severity_name(report.severity)
       << "\n";
    return os.str();
}

}  // namespace ccap::estimate
