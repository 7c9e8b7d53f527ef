// Bitwise CRC-16-CCITT over bit sequences.
//
// Used by the covert-channel protocols to verify end-to-end message
// integrity after decoding, and by tests as a ground-truth corruption
// detector. Operates directly on {0,1} bit vectors so fractional-byte
// covert payloads don't need padding.
#pragma once

#include <cstdint>
#include <span>

#include "ccap/coding/bitvec.hpp"

namespace ccap::coding {

/// CRC-16-CCITT (poly 0x1021, init 0xFFFF, no reflection), bitwise.
[[nodiscard]] std::uint16_t crc16(std::span<const std::uint8_t> bits);

/// Append a 16-bit CRC (MSB-first) to the message bits.
[[nodiscard]] Bits append_crc16(std::span<const std::uint8_t> bits);

/// True iff the trailing 16 bits are the CRC of the prefix.
[[nodiscard]] bool verify_crc16(std::span<const std::uint8_t> bits_with_crc);

}  // namespace ccap::coding
