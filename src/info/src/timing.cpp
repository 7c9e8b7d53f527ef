#include "ccap/info/timing.hpp"

#include <cmath>
#include <stdexcept>

#include "ccap/info/blahut_arimoto.hpp"
#include "ccap/util/solvers.hpp"

namespace ccap::info {

double timing_capacity(std::span<const double> durations) {
    if (durations.size() <= 1) return 0.0;
    double tmin = durations.front();
    for (double t : durations) {
        if (!(t > 0.0)) throw std::domain_error("timing_capacity: durations must be > 0");
        tmin = std::min(tmin, t);
    }
    const auto g = [&](double x) {
        double s = -1.0;
        for (double t : durations) s += std::pow(x, -t);
        return s;
    };
    // g is strictly decreasing for x >= 1; g(1) = m - 1 > 0. Find an upper
    // bracket: all m symbols no shorter than tmin gives root <= m^{1/tmin}.
    const double hi = std::pow(static_cast<double>(durations.size()), 1.0 / tmin) + 1.0;
    const double x0 = util::bisect(g, 1.0, hi, 1e-13).x;
    return std::log2(x0);
}

double stc_capacity(std::span<const double> tick_durations) {
    return timing_capacity(tick_durations);
}

TimedZResult timed_z_capacity(double p, double t0, double t1) {
    if (!(t0 > 0.0) || !(t1 > 0.0))
        throw std::domain_error("timed_z_capacity: durations must be > 0");
    if (p < 0.0 || p > 1.0) throw std::domain_error("timed_z_capacity: p outside [0,1]");
    TimedZResult res;
    if (p >= 1.0) return res;  // '1' never gets through: zero capacity
    const Dmc z = make_z_channel(p);
    // Cost of sending '1': with prob p it is *received* as 0; in the timed
    // Z-channel model of Moskowitz et al. the transmission still occupies the
    // sender for t1 (the duration is a property of the input symbol).
    const std::vector<double> costs = {t0, t1};
    const PerCostResult r = capacity_per_unit_cost(z, costs);
    res.capacity_per_time = r.capacity_per_cost;
    res.optimal_p1 = r.optimal_input.size() == 2 ? r.optimal_input[1] : 0.0;
    res.converged = r.converged;
    return res;
}

}  // namespace ccap::info
