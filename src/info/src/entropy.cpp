#include "ccap/info/entropy.hpp"

#include <cmath>
#include <stdexcept>
#include <string>

namespace ccap::info {

double xlog2x(double x) noexcept { return x > 0.0 ? x * std::log2(x) : 0.0; }

double binary_entropy(double p) {
    if (p < 0.0 || p > 1.0) throw std::domain_error("binary_entropy: p outside [0,1]");
    return -xlog2x(p) - xlog2x(1.0 - p);
}

namespace {
void check_distribution(std::span<const double> p, const char* who) {
    double sum = 0.0;
    for (double v : p) {
        if (v < 0.0) throw std::domain_error(std::string(who) + ": negative probability");
        sum += v;
    }
    if (std::abs(sum - 1.0) > 1e-6)
        throw std::domain_error(std::string(who) + ": probabilities do not sum to 1");
}
}  // namespace

double mutual_information(const util::Matrix& joint) {
    double total = 0.0;
    for (double v : joint.flat()) {
        if (v < 0.0) throw std::domain_error("mutual_information: negative joint probability");
        total += v;
    }
    if (std::abs(total - 1.0) > 1e-6)
        throw std::domain_error("mutual_information: joint does not sum to 1");

    std::vector<double> px(joint.rows(), 0.0), py(joint.cols(), 0.0);
    for (std::size_t x = 0; x < joint.rows(); ++x)
        for (std::size_t y = 0; y < joint.cols(); ++y) {
            px[x] += joint(x, y);
            py[y] += joint(x, y);
        }
    double mi = 0.0;
    for (std::size_t x = 0; x < joint.rows(); ++x)
        for (std::size_t y = 0; y < joint.cols(); ++y) {
            const double pxy = joint(x, y);
            if (pxy > 0.0) mi += pxy * std::log2(pxy / (px[x] * py[y]));
        }
    return mi < 0.0 && mi > -1e-12 ? 0.0 : mi;
}

double mutual_information(std::span<const double> input, const util::Matrix& channel) {
    if (input.size() != channel.rows())
        throw std::invalid_argument("mutual_information: input size != channel rows");
    check_distribution(input, "mutual_information(input)");
    if (!channel.is_row_stochastic(1e-6))
        throw std::domain_error("mutual_information: channel not row-stochastic");
    util::Matrix joint(channel.rows(), channel.cols());
    for (std::size_t x = 0; x < channel.rows(); ++x)
        for (std::size_t y = 0; y < channel.cols(); ++y) joint(x, y) = input[x] * channel(x, y);
    return mutual_information(joint);
}

double mary_symmetric_entropy_penalty(double p, unsigned m) {
    if (m < 2) throw std::invalid_argument("mary_symmetric_entropy_penalty: m < 2");
    return binary_entropy(p) + p * std::log2(static_cast<double>(m) - 1.0);
}

double mary_symmetric_capacity(double p, unsigned m) {
    return std::log2(static_cast<double>(m)) - mary_symmetric_entropy_penalty(p, m);
}

}  // namespace ccap::info
