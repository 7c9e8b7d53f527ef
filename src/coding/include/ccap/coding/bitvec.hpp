// Bit-sequence helpers shared by all coders.
//
// Bits travel through the library as std::vector<std::uint8_t> with values
// in {0,1} (simple, debuggable, and what the channel simulators consume);
// this header provides the conversions and integrity helpers around that
// representation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace ccap::coding {

using Bits = std::vector<std::uint8_t>;

/// Throws std::domain_error unless every element is 0 or 1.
void check_bits(std::span<const std::uint8_t> bits, const char* who = "bits");

/// Lowest `width` bits of `value`, MSB-first.
[[nodiscard]] Bits bits_from_uint(std::uint64_t value, unsigned width);

/// Inverse of bits_from_uint; bits.size() must be <= 64.
[[nodiscard]] std::uint64_t uint_from_bits(std::span<const std::uint8_t> bits);

/// ASCII rendering, e.g. "0110"; for logs and tests.
[[nodiscard]] std::string to_string(std::span<const std::uint8_t> bits);

/// Parse "0101" (throws on other characters).
[[nodiscard]] Bits bits_from_string(const std::string& s);

/// Hamming distance; sizes must match.
[[nodiscard]] std::size_t hamming_distance(std::span<const std::uint8_t> a,
                                           std::span<const std::uint8_t> b);

/// Element-wise XOR; sizes must match.
[[nodiscard]] Bits xor_bits(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b);

/// Deterministic pseudo-random bit sequence from a seed (for watermarks).
[[nodiscard]] Bits random_bits(std::size_t count, std::uint64_t seed);

}  // namespace ccap::coding
