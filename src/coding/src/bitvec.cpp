#include "ccap/coding/bitvec.hpp"

#include <stdexcept>

#include "ccap/util/rng.hpp"

namespace ccap::coding {

void check_bits(std::span<const std::uint8_t> bits, const char* who) {
    for (std::uint8_t b : bits)
        if (b > 1) throw std::domain_error(std::string(who) + ": element is not a bit");
}

Bits bits_from_uint(std::uint64_t value, unsigned width) {
    if (width > 64) throw std::invalid_argument("bits_from_uint: width > 64");
    Bits bits(width);
    for (unsigned i = 0; i < width; ++i)
        bits[i] = static_cast<std::uint8_t>((value >> (width - 1 - i)) & 1U);
    return bits;
}

std::uint64_t uint_from_bits(std::span<const std::uint8_t> bits) {
    if (bits.size() > 64) throw std::invalid_argument("uint_from_bits: more than 64 bits");
    check_bits(bits, "uint_from_bits");
    std::uint64_t v = 0;
    for (std::uint8_t b : bits) v = (v << 1) | b;
    return v;
}

std::string to_string(std::span<const std::uint8_t> bits) {
    std::string s;
    s.reserve(bits.size());
    for (std::uint8_t b : bits) s.push_back(b ? '1' : '0');
    return s;
}

Bits bits_from_string(const std::string& s) {
    Bits bits;
    bits.reserve(s.size());
    for (char c : s) {
        if (c != '0' && c != '1') throw std::invalid_argument("bits_from_string: bad character");
        bits.push_back(static_cast<std::uint8_t>(c == '1'));
    }
    return bits;
}

std::size_t hamming_distance(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
    if (a.size() != b.size()) throw std::invalid_argument("hamming_distance: size mismatch");
    std::size_t d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) d += (a[i] != b[i]) ? 1U : 0U;
    return d;
}

Bits xor_bits(std::span<const std::uint8_t> a, std::span<const std::uint8_t> b) {
    if (a.size() != b.size()) throw std::invalid_argument("xor_bits: size mismatch");
    check_bits(a, "xor_bits(a)");
    check_bits(b, "xor_bits(b)");
    Bits out(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) out[i] = a[i] ^ b[i];
    return out;
}

Bits random_bits(std::size_t count, std::uint64_t seed) {
    util::Rng rng(seed);
    Bits bits(count);
    for (auto& b : bits) b = static_cast<std::uint8_t>(rng.next() & 1U);
    return bits;
}

}  // namespace ccap::coding
