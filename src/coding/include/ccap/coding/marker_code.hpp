// Marker (synchronization-pattern) codes for insertion/deletion channels.
//
// The oldest practical defence against synchronization errors: a fixed,
// publicly known marker pattern is woven into the stream every `period`
// data bits. The decoder knows where markers *should* be, so the drift HMM
// can track insertions/deletions using the markers as anchors, and the
// data-bit posteriors it emits feed a conventional outer code (here: soft
// Viterbi over a convolutional code).
//
// Encoding layout per block:  d_1..d_P  M  d_{P+1}..d_{2P}  M ... (marker M
// after every P data bits, including after the final partial group).
#pragma once

#include <optional>

#include "ccap/coding/bitvec.hpp"
#include "ccap/coding/convolutional.hpp"
#include "ccap/info/drift_hmm.hpp"

namespace ccap::coding {

struct MarkerParams {
    Bits marker = {0, 0, 1};  ///< marker pattern
    std::size_t period = 8;   ///< data bits between markers
    double data_prior_one = 0.5;  ///< decoder's prior on each data bit
};

class MarkerCode {
public:
    explicit MarkerCode(MarkerParams params);

    /// Stream length after inserting markers into `data_len` data bits.
    [[nodiscard]] std::size_t encoded_length(std::size_t data_len) const noexcept;

    [[nodiscard]] Bits encode(std::span<const std::uint8_t> data) const;

    struct SoftDecode {
        std::vector<double> posterior_one;  ///< P(data bit = 1 | received)
        Bits hard;                          ///< thresholded decisions
    };
    /// Per-data-bit posteriors via the drift HMM with marker positions
    /// pinned. `data_len` is the number of data bits originally encoded.
    [[nodiscard]] SoftDecode decode_soft(std::span<const std::uint8_t> received,
                                         std::size_t data_len,
                                         const info::DriftParams& channel) const;

    /// Full pipeline: convolutionally encode info bits, weave markers,
    /// (channel happens outside), then decode soft and Viterbi-correct.
    [[nodiscard]] Bits encode_with_outer(const ConvolutionalCode& outer,
                                         std::span<const std::uint8_t> info) const;
    [[nodiscard]] Bits decode_with_outer(const ConvolutionalCode& outer,
                                         std::span<const std::uint8_t> received,
                                         std::size_t info_len,
                                         const info::DriftParams& channel) const;

private:
    /// Per-position transmitted-bit priors for a stream of `data_len` data bits.
    [[nodiscard]] util::Matrix build_priors(std::size_t data_len) const;
    MarkerParams params_;
};

}  // namespace ccap::coding
