#include "ccap/core/channel_params.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace ccap::core {

void DiChannelParams::validate() const {
    // isfinite first: NaN sails through every < comparison below.
    if (!std::isfinite(p_d) || !std::isfinite(p_i) || !std::isfinite(p_s))
        throw std::domain_error("DiChannelParams: non-finite probability");
    if (p_d < 0.0 || p_i < 0.0 || p_s < 0.0)
        throw std::domain_error("DiChannelParams: negative probability");
    if (p_s > 1.0) throw std::domain_error("DiChannelParams: p_s > 1");
    if (p_d + p_i > 1.0 + 1e-12)
        throw std::domain_error("DiChannelParams: p_d + p_i exceeds 1");
    if (bits_per_symbol == 0 || bits_per_symbol > 16)
        throw std::domain_error("DiChannelParams: bits_per_symbol must be in [1,16]");
}

std::string DiChannelParams::to_string() const {
    char buf[96];
    std::snprintf(buf, sizeof buf, "p_d=%.4f p_i=%.4f p_s=%.4f N=%u", p_d, p_i, p_s,
                  bits_per_symbol);
    return buf;
}

}  // namespace ccap::core
