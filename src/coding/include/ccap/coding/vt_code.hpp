// Varshamov-Tenengolts codes VT_a(n): the classic single-deletion /
// single-insertion correcting binary codes.
//
// VT_a(n) = { x in {0,1}^n : sum_i i * x_i == a (mod n+1) }  (positions
// 1-indexed). Levenshtein proved each VT code corrects any single deletion
// or single insertion; VT_0(n) is the largest such code known. These codes
// are the simplest concrete witness to the paper's Section 4.1 statement
// that reliable communication over synchronization-error channels is
// possible without feedback — they handle exactly one indel per block, so
// their usable rate collapses as blocks lengthen (shown in bench E5).
//
// The systematic encoder (Abdel-Ghaffar & Ferreira) places information bits
// at non-power-of-two positions and solves for the power-of-two parity bits
// via the binary representation of the checksum deficiency.
#pragma once

#include <cstdint>
#include <optional>

#include "ccap/coding/bitvec.hpp"

namespace ccap::coding {

enum class VtStatus : std::uint8_t {
    ok,                ///< decoded successfully
    detected_failure,  ///< length-n word failed the checksum (substitution?)
    bad_length,        ///< received length not in {n-1, n, n+1}
};

struct VtDecodeResult {
    VtStatus status = VtStatus::bad_length;
    Bits codeword;  ///< reconstructed length-n codeword (valid when status==ok)
    Bits info;      ///< extracted information bits (valid when status==ok)
};

class VtCode {
public:
    /// Code of length n (>= 2) with checksum residue a in [0, n].
    VtCode(unsigned n, unsigned a);

    /// Information bits carried per block by the systematic encoder.
    [[nodiscard]] unsigned data_bits() const noexcept;
    [[nodiscard]] double rate() const noexcept {
        return static_cast<double>(data_bits()) / n_;
    }

    /// Checksum sum_i i*x_i mod (n+1); word must be n bits.
    [[nodiscard]] unsigned checksum(std::span<const std::uint8_t> word) const;
    [[nodiscard]] bool is_codeword(std::span<const std::uint8_t> word) const;

    /// Systematic encode of exactly data_bits() information bits.
    [[nodiscard]] Bits encode(std::span<const std::uint8_t> info) const;
    /// Extract the information bits of a codeword (no error correction).
    [[nodiscard]] Bits extract_info(std::span<const std::uint8_t> codeword) const;

    /// Decode a received word of length n-1 (one deletion, O(n) direct
    /// algorithm), n (checksum verify), or n+1 (one insertion).
    [[nodiscard]] VtDecodeResult decode(std::span<const std::uint8_t> received) const;

private:
    [[nodiscard]] Bits correct_deletion(std::span<const std::uint8_t> received) const;
    unsigned n_;
    unsigned a_;
};

}  // namespace ccap::coding
