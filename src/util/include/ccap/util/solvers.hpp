// Generic 1-D root finding for the capacity solvers: bisection for monotone
// roots (timing-channel and FSM characteristic equations).
#pragma once

#include <stdexcept>

namespace ccap::util {

struct SolveResult {
    double x = 0.0;        ///< root location
    double value = 0.0;    ///< f(x)
    int iterations = 0;    ///< iterations consumed
    bool converged = false;
};

/// Find x in [lo, hi] with f(x) = 0 by bisection. Requires f(lo) and f(hi)
/// to have opposite signs (or one of them to be zero); throws otherwise.
template <typename F>
[[nodiscard]] SolveResult bisect(F&& f, double lo, double hi, double xtol = 1e-12,
                                 int max_iter = 200) {
    double flo = f(lo);
    double fhi = f(hi);
    if (flo == 0.0) return {lo, 0.0, 0, true};
    if (fhi == 0.0) return {hi, 0.0, 0, true};
    if ((flo > 0.0) == (fhi > 0.0))
        throw std::invalid_argument("bisect: f(lo) and f(hi) have the same sign");
    SolveResult res;
    for (int it = 0; it < max_iter; ++it) {
        const double mid = 0.5 * (lo + hi);
        const double fmid = f(mid);
        res.iterations = it + 1;
        if (fmid == 0.0 || (hi - lo) < xtol) {
            res.x = mid;
            res.value = fmid;
            res.converged = true;
            return res;
        }
        if ((fmid > 0.0) == (flo > 0.0)) {
            lo = mid;
            flo = fmid;
        } else {
            hi = mid;
        }
    }
    res.x = 0.5 * (lo + hi);
    res.value = f(res.x);
    res.converged = (hi - lo) < xtol * 16;
    return res;
}

}  // namespace ccap::util
