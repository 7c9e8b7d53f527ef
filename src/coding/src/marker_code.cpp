#include "ccap/coding/marker_code.hpp"

#include <cmath>
#include <stdexcept>

#include "ccap/coding/viterbi.hpp"

namespace ccap::coding {

MarkerCode::MarkerCode(MarkerParams params) : params_(std::move(params)) {
    if (params_.marker.empty()) throw std::invalid_argument("MarkerCode: empty marker");
    check_bits(params_.marker, "MarkerCode marker");
    if (params_.period == 0) throw std::invalid_argument("MarkerCode: zero period");
    if (params_.data_prior_one <= 0.0 || params_.data_prior_one >= 1.0)
        throw std::invalid_argument("MarkerCode: data prior must be in (0,1)");
}

std::size_t MarkerCode::encoded_length(std::size_t data_len) const noexcept {
    // Even an empty payload carries one marker (mirrors encode()).
    const std::size_t groups =
        data_len == 0 ? 1 : (data_len + params_.period - 1) / params_.period;
    return data_len + groups * params_.marker.size();
}

Bits MarkerCode::encode(std::span<const std::uint8_t> data) const {
    check_bits(data, "MarkerCode::encode");
    Bits out;
    out.reserve(encoded_length(data.size()));
    std::size_t in_group = 0;
    for (std::uint8_t b : data) {
        out.push_back(b);
        if (++in_group == params_.period) {
            out.insert(out.end(), params_.marker.begin(), params_.marker.end());
            in_group = 0;
        }
    }
    if (in_group != 0 || data.empty())
        out.insert(out.end(), params_.marker.begin(), params_.marker.end());
    return out;
}

util::Matrix MarkerCode::build_priors(std::size_t data_len) const {
    const std::size_t total = encoded_length(data_len);
    util::Matrix priors(total, 2);
    std::size_t pos = 0, in_group = 0, emitted = 0;
    const auto put_marker = [&] {
        for (std::uint8_t mb : params_.marker) {
            priors(pos, 0) = mb ? 0.0 : 1.0;
            priors(pos, 1) = mb ? 1.0 : 0.0;
            ++pos;
        }
    };
    while (emitted < data_len) {
        priors(pos, 0) = 1.0 - params_.data_prior_one;
        priors(pos, 1) = params_.data_prior_one;
        ++pos;
        ++emitted;
        if (++in_group == params_.period) {
            put_marker();
            in_group = 0;
        }
    }
    if (in_group != 0 || data_len == 0) put_marker();
    return priors;
}

MarkerCode::SoftDecode MarkerCode::decode_soft(std::span<const std::uint8_t> received,
                                               std::size_t data_len,
                                               const info::DriftParams& channel) const {
    check_bits(received, "MarkerCode::decode_soft");
    const util::Matrix priors = build_priors(data_len);
    const info::DriftHmm hmm(channel);
    const util::Matrix post = hmm.posteriors(priors, received);

    SoftDecode out;
    out.posterior_one.reserve(data_len);
    out.hard.reserve(data_len);
    std::size_t pos = 0, in_group = 0;
    for (std::size_t emitted = 0; emitted < data_len; ++emitted) {
        const double p1 = post(pos, 1);
        out.posterior_one.push_back(p1);
        out.hard.push_back(static_cast<std::uint8_t>(p1 > 0.5));
        ++pos;
        if (++in_group == params_.period) {
            pos += params_.marker.size();
            in_group = 0;
        }
    }
    return out;
}

Bits MarkerCode::encode_with_outer(const ConvolutionalCode& outer,
                                   std::span<const std::uint8_t> info) const {
    return encode(outer.encode(info));
}

Bits MarkerCode::decode_with_outer(const ConvolutionalCode& outer,
                                   std::span<const std::uint8_t> received, std::size_t info_len,
                                   const info::DriftParams& channel) const {
    const std::size_t coded_len = (info_len + outer.constraint_length() - 1) *
                                  outer.rate_denominator();
    const SoftDecode soft = decode_soft(received, coded_len, channel);
    std::vector<double> llrs(coded_len);
    for (std::size_t i = 0; i < coded_len; ++i) {
        const double p1 = std::min(std::max(soft.posterior_one[i], 1e-12), 1.0 - 1e-12);
        llrs[i] = std::log2((1.0 - p1) / p1);
    }
    return viterbi_decode_soft(outer, llrs).info;
}

}  // namespace ccap::coding
