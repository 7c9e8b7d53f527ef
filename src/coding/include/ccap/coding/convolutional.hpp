// Feed-forward rate-1/n convolutional codes.
//
// Zigangirov's 1969 sequential-decoding result (the paper's reference [12])
// was the first demonstration that convolutional codes make communication
// over drop-out/insertion channels possible; we use the same code family as
// the substitution-correcting layer in the coded-transmission experiments
// and as the outer code in the marker-code pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "ccap/coding/bitvec.hpp"

namespace ccap::coding {

/// Generator polynomials are given in the usual octal-style binary
/// convention: bit k of the polynomial taps the input delayed by k. E.g. the
/// classic K=3 rate-1/2 code is {0b111, 0b101} (7,5).
class ConvolutionalCode {
public:
    ConvolutionalCode(std::vector<std::uint32_t> generators, unsigned constraint_length);

    [[nodiscard]] unsigned constraint_length() const noexcept { return k_; }
    [[nodiscard]] unsigned rate_denominator() const noexcept {
        return static_cast<unsigned>(generators_.size());
    }
    [[nodiscard]] unsigned num_states() const noexcept { return 1U << (k_ - 1); }

    /// Encode with `k-1` terminating zero bits appended (trellis returns to
    /// state 0). Output length = (info.size() + k - 1) * n.
    [[nodiscard]] Bits encode(std::span<const std::uint8_t> info) const;

    /// Output bits for one trellis step from `state` with input `bit`.
    /// Also returns the next state via out-parameter-free struct.
    struct Step {
        std::uint32_t next_state = 0;
        std::uint32_t output = 0;  ///< n output bits, MSB = first generator
    };
    [[nodiscard]] Step step(std::uint32_t state, std::uint8_t bit) const noexcept;

private:
    std::vector<std::uint32_t> generators_;
    unsigned k_;
};

}  // namespace ccap::coding
