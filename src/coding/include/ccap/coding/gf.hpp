// Finite-field arithmetic over GF(2^m), 1 <= m <= 12, via log/antilog
// tables built from standard primitive polynomials. Used by the non-binary
// LDPC outer code of the Davey-MacKay watermark construction.
#pragma once

#include <cstdint>
#include <vector>

namespace ccap::coding {

class GaloisField {
public:
    /// GF(2^m). Throws for m outside [1, 12].
    explicit GaloisField(unsigned m);

    [[nodiscard]] unsigned size() const noexcept { return q_; }  ///< q = 2^m

    [[nodiscard]] std::uint16_t add(std::uint16_t a, std::uint16_t b) const noexcept {
        return a ^ b;  // characteristic 2
    }
    [[nodiscard]] std::uint16_t sub(std::uint16_t a, std::uint16_t b) const noexcept {
        return a ^ b;
    }
    [[nodiscard]] std::uint16_t mul(std::uint16_t a, std::uint16_t b) const;
    [[nodiscard]] std::uint16_t inv(std::uint16_t a) const;

private:
    void check_element(std::uint16_t a) const;
    unsigned q_;
    std::vector<std::uint16_t> exp_;  // exp_[i] = alpha^i, size q-1
    std::vector<std::uint16_t> log_;  // log_[a] = i with alpha^i = a, a != 0
};

}  // namespace ccap::coding
