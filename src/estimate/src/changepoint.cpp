#include "ccap/estimate/changepoint.hpp"

#include <cmath>
#include <stdexcept>

namespace ccap::estimate {

WindowedRates windowed_rates(std::span<const std::uint32_t> sent,
                             std::span<const std::uint32_t> received,
                             std::size_t window_len) {
    if (window_len == 0) throw std::invalid_argument("windowed_rates: window_len == 0");
    WindowedRates out;
    out.window_len = window_len;
    std::size_t sent_pos = 0, recv_pos = 0;
    while (sent_pos < sent.size()) {
        const std::size_t n = std::min(window_len, sent.size() - sent_pos);
        // End-free alignment against a slack-padded received span; the
        // window's own consumption advances the cursor.
        const std::size_t w = drift_window(n, received.size() - recv_pos);
        const WindowEstimate win =
            estimate_window(sent.subspan(sent_pos, n), received.subspan(recv_pos, w));
        out.p_d.push_back(win.estimate.p_d.value);
        out.p_i.push_back(win.estimate.p_i.value);
        out.p_s.push_back(win.estimate.p_s.value);
        recv_pos = std::min(received.size(), recv_pos + win.received_consumed);
        sent_pos += n;
    }
    return out;
}

std::optional<ChangePoint> detect_rate_change(std::span<const double> series,
                                              double z_threshold) {
    const std::size_t n = series.size();
    if (n < 4) return std::nullopt;  // need >= 2 windows per side

    // Prefix sums for O(n) candidate evaluation.
    std::vector<double> prefix(n + 1, 0.0), prefix_sq(n + 1, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        prefix[i + 1] = prefix[i] + series[i];
        prefix_sq[i + 1] = prefix_sq[i] + series[i] * series[i];
    }
    const auto segment_stats = [&](std::size_t lo, std::size_t hi) {  // [lo, hi)
        const double cnt = static_cast<double>(hi - lo);
        const double mean = (prefix[hi] - prefix[lo]) / cnt;
        const double var =
            std::max(0.0, (prefix_sq[hi] - prefix_sq[lo]) / cnt - mean * mean);
        return std::pair{mean, var};
    };

    std::optional<ChangePoint> best;
    for (std::size_t split = 2; split + 2 <= n; ++split) {
        const auto [m1, v1] = segment_stats(0, split);
        const auto [m2, v2] = segment_stats(split, n);
        const double n1 = static_cast<double>(split);
        const double n2 = static_cast<double>(n - split);
        // Pooled standard error with a floor so constant series don't
        // produce infinite z-scores from numerical dust.
        const double se = std::sqrt(v1 / n1 + v2 / n2) + 1e-9;
        const double z = std::abs(m2 - m1) / se;
        if (z >= z_threshold && (!best || z > best->z_score))
            best = ChangePoint{split, m1, m2, z};
    }
    return best;
}

}  // namespace ccap::estimate
