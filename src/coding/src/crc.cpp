#include "ccap/coding/crc.hpp"

#include <array>

namespace ccap::coding {
namespace {

// Bit-at-a-time CRC engine. Messages here are at most a few thousand bits,
// so clarity wins over a byte-table implementation.
constexpr std::uint16_t kCcittPoly = 0x1021;

}  // namespace

std::uint16_t crc16(std::span<const std::uint8_t> bits) {
    check_bits(bits, "crc16");
    std::uint16_t crc = 0xFFFF;
    for (std::uint8_t b : bits) {
        const bool top = (crc & 0x8000U) != 0;
        crc = static_cast<std::uint16_t>(crc << 1);
        if (top != (b != 0)) crc ^= kCcittPoly;
    }
    return crc;
}

Bits append_crc16(std::span<const std::uint8_t> bits) {
    Bits out(bits.begin(), bits.end());
    const Bits tail = bits_from_uint(crc16(bits), 16);
    out.insert(out.end(), tail.begin(), tail.end());
    return out;
}

bool verify_crc16(std::span<const std::uint8_t> bits_with_crc) {
    if (bits_with_crc.size() < 16) return false;
    const auto body = bits_with_crc.first(bits_with_crc.size() - 16);
    const auto tail = bits_with_crc.last(16);
    return crc16(body) == uint_from_bits(tail);
}

}  // namespace ccap::coding
