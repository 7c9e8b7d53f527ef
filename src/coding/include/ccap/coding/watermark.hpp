// Davey-MacKay watermark codes (IEEE Trans. IT 2001) — the paper's
// reference [13] and the strongest known practical scheme for reliable,
// completely unsynchronized communication over deletion-insertion channels.
//
// Construction: information is encoded by an outer non-binary LDPC code
// over GF(q = 2^k); each GF(q) symbol is mapped to a sparse binary chunk of
// n_c bits (the q lowest-weight strings); the concatenated sparse stream is
// XORed with a pseudo-random *watermark* known to both parties. Because the
// sparse stream is mostly zero, the received stream statistically resembles
// the watermark, letting the receiver's drift HMM track insertions and
// deletions; the per-chunk likelihoods it produces feed the LDPC decoder.
//
// The achieved rate (k_ldpc * k) / (n_symbols * n_c) bits per channel bit,
// multiplied by the block success rate, is the "quite low" practical
// capacity the paper's Section 4.1 contrasts with synchronized operation.
#pragma once

#include <cstdint>
#include <optional>

#include "ccap/coding/bitvec.hpp"
#include "ccap/coding/ldpc_gf.hpp"
#include "ccap/info/drift_hmm.hpp"

namespace ccap::coding {

struct WatermarkParams {
    unsigned bits_per_symbol = 4;   ///< k: outer code over GF(2^k)
    unsigned chunk_bits = 6;        ///< n_c: sparse chunk length (> k)
    std::size_t num_symbols = 60;   ///< outer codeword length in symbols
    std::size_t num_checks = 20;    ///< LDPC parity checks
    unsigned ldpc_var_degree = 3;
    std::uint64_t watermark_seed = 0xACE1;
    std::uint64_t ldpc_seed = 0xBEEF;
};

class WatermarkCode {
public:
    explicit WatermarkCode(WatermarkParams params);

    /// Information bits per block.
    [[nodiscard]] std::size_t info_bits() const noexcept {
        return ldpc_.k() * params_.bits_per_symbol;
    }
    /// Transmitted (channel) bits per block.
    [[nodiscard]] std::size_t channel_bits() const noexcept {
        return params_.num_symbols * params_.chunk_bits;
    }
    /// Design rate in information bits per transmitted bit.
    [[nodiscard]] double rate() const noexcept {
        return static_cast<double>(info_bits()) / static_cast<double>(channel_bits());
    }

    [[nodiscard]] Bits encode(std::span<const std::uint8_t> info) const;

    struct DecodeResult {
        Bits info;             ///< decoded information bits
        bool ldpc_converged = false;
        int ldpc_iterations = 0;
    };
    /// The workspace overload runs the inner drift-HMM trellis in
    /// caller-owned flat arenas (ccap/info/lattice_engine.hpp), making
    /// repeated decodes allocation-free on the lattice side; the other
    /// overload leases a thread-local workspace.
    [[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> received,
                                      const info::DriftParams& channel,
                                      int ldpc_iterations = 60) const;
    [[nodiscard]] DecodeResult decode(std::span<const std::uint8_t> received,
                                      const info::DriftParams& channel, int ldpc_iterations,
                                      info::LatticeWorkspace& ws) const;

private:
    WatermarkParams params_;
    NbLdpcCode ldpc_;
    Bits watermark_;                                  // channel_bits() long
    std::vector<std::vector<std::uint8_t>> codebook_;  // q sparse chunks
    double density_ = 0.0;
};

/// The q lowest-weight binary strings of length n_c (ties broken
/// lexicographically) — the Davey-MacKay sparsifier codebook.
[[nodiscard]] std::vector<std::vector<std::uint8_t>> sparse_codebook(unsigned q,
                                                                     unsigned chunk_bits);

}  // namespace ccap::coding
