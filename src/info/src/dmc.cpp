#include "ccap/info/dmc.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "ccap/info/entropy.hpp"

namespace ccap::info {

Dmc::Dmc(util::Matrix transition) : w_(std::move(transition)) {
    if (w_.rows() == 0 || w_.cols() == 0) throw std::invalid_argument("Dmc: empty matrix");
    if (!w_.is_row_stochastic(1e-9)) throw std::invalid_argument("Dmc: matrix not row-stochastic");
    w_.normalize_rows();  // remove the 1e-9 slack exactly
}

namespace {
void check_prob(double p, const char* who) {
    if (p < 0.0 || p > 1.0) throw std::domain_error(std::string(who) + ": probability outside [0,1]");
}
}  // namespace

Dmc make_bsc(double p) {
    check_prob(p, "make_bsc");
    return Dmc(util::Matrix{{1.0 - p, p}, {p, 1.0 - p}});
}

Dmc make_bec(double e) {
    check_prob(e, "make_bec");
    return Dmc(util::Matrix{{1.0 - e, 0.0, e}, {0.0, 1.0 - e, e}});
}

Dmc make_mary_symmetric(unsigned m, double p) {
    if (m < 2) throw std::invalid_argument("make_mary_symmetric: m < 2");
    check_prob(p, "make_mary_symmetric");
    util::Matrix w(m, m, p / (static_cast<double>(m) - 1.0));
    for (unsigned i = 0; i < m; ++i) w(i, i) = 1.0 - p;
    return Dmc(std::move(w));
}

Dmc make_z_channel(double p) {
    check_prob(p, "make_z_channel");
    return Dmc(util::Matrix{{1.0, 0.0}, {p, 1.0 - p}});
}

Dmc make_mary_erasure(unsigned m, double e) {
    if (m < 2) throw std::invalid_argument("make_mary_erasure: m < 2");
    check_prob(e, "make_mary_erasure");
    util::Matrix w(m, m + 1);
    for (unsigned i = 0; i < m; ++i) {
        w(i, i) = 1.0 - e;
        w(i, m) = e;
    }
    return Dmc(std::move(w));
}

Dmc make_noiseless(unsigned m) {
    if (m < 1) throw std::invalid_argument("make_noiseless: m < 1");
    util::Matrix w(m, m);
    for (unsigned i = 0; i < m; ++i) w(i, i) = 1.0;
    return Dmc(std::move(w));
}

double bsc_capacity(double p) {
    check_prob(p, "bsc_capacity");
    return 1.0 - binary_entropy(p);
}

double bec_capacity(double e) {
    check_prob(e, "bec_capacity");
    return 1.0 - e;
}

double z_channel_capacity(double p) {
    check_prob(p, "z_channel_capacity");
    if (p >= 1.0) return 0.0;
    // C = log2(1 + (1-p) * p^{p/(1-p)})
    const double q = 1.0 - p;
    return std::log2(1.0 + q * std::pow(p, p / q));
}

double mary_erasure_capacity(unsigned m, double e) {
    if (m < 2) throw std::invalid_argument("mary_erasure_capacity: m < 2");
    check_prob(e, "mary_erasure_capacity");
    return std::log2(static_cast<double>(m)) * (1.0 - e);
}

}  // namespace ccap::info
