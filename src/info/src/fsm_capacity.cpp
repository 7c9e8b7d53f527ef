#include "ccap/info/fsm_capacity.hpp"

#include <cmath>
#include <stdexcept>

#include "ccap/util/matrix.hpp"
#include "ccap/util/solvers.hpp"

namespace ccap::info {

FsmChannel::FsmChannel(std::size_t num_states) : num_states_(num_states) {
    if (num_states == 0) throw std::invalid_argument("FsmChannel: need at least one state");
}

void FsmChannel::add_edge(std::size_t from, std::size_t to, double duration) {
    if (from >= num_states_ || to >= num_states_)
        throw std::out_of_range("FsmChannel::add_edge: state out of range");
    if (!(duration > 0.0))
        throw std::domain_error("FsmChannel::add_edge: duration must be > 0");
    edges_.push_back({from, to, duration});
}

namespace {
/// B(x)_ij = sum over edges i->j of x^{-t}.
util::Matrix weight_matrix(const std::vector<FsmEdge>& edges, std::size_t n, double x) {
    util::Matrix b(n, n);
    for (const FsmEdge& e : edges) b(e.from, e.to) += std::pow(x, -e.duration);
    return b;
}
}  // namespace

double FsmChannel::capacity() const {
    if (edges_.empty()) return 0.0;
    // rho(B(x)) is continuous and strictly decreasing in x >= 1 wherever
    // positive. Capacity is log2 of the root of rho(B(x)) = 1; if even at
    // x = 1 the radius is < 1 the machine cannot sustain transmission.
    const auto rho = [&](double x) {
        return weight_matrix(edges_, num_states_, x).spectral_radius();
    };
    const double rho1 = rho(1.0);
    if (rho1 <= 1.0 + 1e-12) return 0.0;
    // Bracket: rho(B(x)) <= num_edges * x^{-tmin}, so the root is at most
    // num_edges^{1/tmin}.
    double tmin = edges_.front().duration;
    for (const FsmEdge& e : edges_) tmin = std::min(tmin, e.duration);
    const double hi = std::pow(static_cast<double>(edges_.size()), 1.0 / tmin) + 1.0;
    const double x0 = util::bisect([&](double x) { return rho(x) - 1.0; }, 1.0, hi, 1e-12).x;
    return std::log2(x0);
}

}  // namespace ccap::info
