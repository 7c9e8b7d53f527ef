// Definition 1 of the paper: the four-parameter deletion-insertion channel.
//
//   "A binary deletion-insertion channel is a channel with four parameters:
//    P_d, P_i, P_t and P_s, which denote the rates of deletions,
//    insertions, transmissions and substitutions, respectively."
//
// We generalize to M-ary symbols (M = 2^N, N = bits_per_symbol) exactly as
// the paper's capacity expressions do. P_t is derived (P_d + P_i + P_t = 1);
// P_s is the substitution probability *given* a transmission.
#pragma once

#include <cstdint>
#include <string>

namespace ccap::core {

struct DiChannelParams {
    double p_d = 0.0;            ///< deletion probability per channel use
    double p_i = 0.0;            ///< insertion probability per channel use
    double p_s = 0.0;            ///< substitution probability given transmission
    unsigned bits_per_symbol = 1;  ///< N; the symbol alphabet is [0, 2^N)

    /// Transmission probability per channel use.
    [[nodiscard]] double p_t() const noexcept { return 1.0 - p_d - p_i; }
    /// Alphabet size M = 2^N.
    [[nodiscard]] std::uint32_t alphabet() const noexcept { return 1U << bits_per_symbol; }

    /// Throws std::domain_error when the parameter set is not a channel.
    void validate() const;

    /// "p_d=0.10 p_i=0.05 p_s=0.00 N=1" — used by reports and benches.
    [[nodiscard]] std::string to_string() const;

    [[nodiscard]] bool operator==(const DiChannelParams&) const noexcept = default;
};

}  // namespace ccap::core
