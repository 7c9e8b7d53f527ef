#include "ccap/coding/gf.hpp"

#include <array>
#include <stdexcept>

namespace ccap::coding {
namespace {

// Primitive polynomials (without the leading x^m term is included as bits;
// value includes x^m bit) for GF(2^m), m = 1..12.
constexpr std::array<std::uint16_t, 13> kPrimitivePoly = {
    0,       // unused
    0b11,    // m=1:  x + 1
    0b111,   // m=2:  x^2 + x + 1
    0b1011,  // m=3:  x^3 + x + 1
    0b10011, // m=4:  x^4 + x + 1
    0b100101,        // m=5:  x^5 + x^2 + 1
    0b1000011,       // m=6:  x^6 + x + 1
    0b10001001,      // m=7:  x^7 + x^3 + 1
    0b100011101,     // m=8:  x^8 + x^4 + x^3 + x^2 + 1
    0b1000010001,    // m=9:  x^9 + x^4 + 1
    0b10000001001,   // m=10: x^10 + x^3 + 1
    0b100000000101,  // m=11: x^11 + x^2 + 1
    0b1000001010011, // m=12: x^12 + x^6 + x^4 + x + 1
};

}  // namespace

GaloisField::GaloisField(unsigned m) : q_(1U << m) {
    if (m < 1 || m > 12) throw std::invalid_argument("GaloisField: m must be in [1,12]");
    exp_.resize(q_ - 1);
    log_.assign(q_, 0);
    const std::uint32_t poly = kPrimitivePoly[m];
    std::uint32_t x = 1;
    for (unsigned i = 0; i < q_ - 1; ++i) {
        exp_[i] = static_cast<std::uint16_t>(x);
        log_[x] = static_cast<std::uint16_t>(i);
        x <<= 1;
        if (x & q_) x ^= poly;
    }
}

void GaloisField::check_element(std::uint16_t a) const {
    if (a >= q_) throw std::out_of_range("GaloisField: element out of field");
}

std::uint16_t GaloisField::mul(std::uint16_t a, std::uint16_t b) const {
    check_element(a);
    check_element(b);
    if (a == 0 || b == 0) return 0;
    const unsigned s = log_[a] + log_[b];
    return exp_[s % (q_ - 1)];
}

std::uint16_t GaloisField::inv(std::uint16_t a) const {
    check_element(a);
    if (a == 0) throw std::domain_error("GaloisField::inv: zero has no inverse");
    return exp_[(q_ - 1 - log_[a]) % (q_ - 1)];
}

}  // namespace ccap::coding
