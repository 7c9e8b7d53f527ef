#include "ccap/util/stats.hpp"

#include <algorithm>
#include <cmath>

namespace ccap::util {

void RunningStats::add(double x) noexcept {
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double RunningStats::variance() const noexcept {
    return n_ >= 2 ? m2_ / static_cast<double>(n_ - 1) : 0.0;
}

double RunningStats::stddev() const noexcept { return std::sqrt(variance()); }

double RunningStats::sem() const noexcept {
    return n_ >= 2 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

namespace {

/// One Kahan step: s += v with the rounding error carried in c. Written as
/// the canonical four-operation sequence; kept out of line-level cleverness
/// so no compiler reassociation (the build does not enable fast-math) can
/// collapse the compensation away.
inline void kahan_add(double& s, double& c, double v) noexcept {
    const double y = v - c;
    const double t = s + y;
    c = (t - s) - y;
    s = t;
}

}  // namespace

void CompensatedStats::add(double x) noexcept {
    if (n_ == 0) shift_ = x;  // pin the shift to the first sample
    ++n_;
    const double d = x - shift_;
    kahan_add(sum_, sum_c_, d);
    kahan_add(sq_, sq_c_, d * d);
}

double CompensatedStats::mean() const noexcept {
    return n_ ? shift_ + sum_ / static_cast<double>(n_) : 0.0;
}

double CompensatedStats::variance() const noexcept {
    if (n_ < 2) return 0.0;
    const double n = static_cast<double>(n_);
    // Shifted-data variance: both terms are at the noise scale (the shift
    // removed the large common mean), so the subtraction is benign.
    const double centered = sq_ - sum_ * sum_ / n;
    return std::max(0.0, centered / (n - 1.0));
}

double CompensatedStats::stddev() const noexcept { return std::sqrt(variance()); }

double CompensatedStats::sem() const noexcept {
    return n_ >= 2 ? stddev() / std::sqrt(static_cast<double>(n_)) : 0.0;
}

}  // namespace ccap::util
