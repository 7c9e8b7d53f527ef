// Non-binary LDPC codes over GF(2^m) with sum-product decoding.
//
// This is the outer code of the Davey-MacKay watermark construction
// (IEEE Trans. IT 2001): symbol-level sparse parity checks over GF(q)
// whose decoder consumes the per-symbol likelihood vectors produced by the
// drift-HMM inner decoder. The construction is a random near-regular
// bipartite graph (variable degree d_v, balanced check degrees) with random
// nonzero edge coefficients; encoding is systematic via Gaussian
// elimination of H over GF(q).
#pragma once

#include <cstdint>
#include <vector>

#include "ccap/coding/gf.hpp"
#include "ccap/util/matrix.hpp"

namespace ccap::coding {

struct NbLdpcParams {
    unsigned field_m = 4;      ///< GF(2^m); Davey-MacKay use m=4 (GF(16))
    std::size_t n = 100;       ///< codeword length in symbols
    std::size_t num_checks = 50;  ///< parity checks (design redundancy)
    unsigned var_degree = 3;   ///< edges per variable node
    std::uint64_t seed = 1;    ///< construction seed
};

struct NbLdpcDecodeResult {
    std::vector<std::uint16_t> symbols;  ///< hard decisions, length n
    bool converged = false;              ///< all checks satisfied
    int iterations = 0;
};

class NbLdpcCode {
public:
    explicit NbLdpcCode(NbLdpcParams params);

    [[nodiscard]] std::size_t n() const noexcept { return params_.n; }
    /// Actual information symbols: n - rank(H). (Equals n - num_checks when
    /// the random H has full rank, which the constructor retries for.)
    [[nodiscard]] std::size_t k() const noexcept { return info_cols_.size(); }

    /// Systematic encode: info symbols land in the non-pivot columns in
    /// increasing column order; parity symbols are solved from H.
    [[nodiscard]] std::vector<std::uint16_t> encode(std::span<const std::uint16_t> info) const;

    /// Extract the info symbols back out of a codeword.
    [[nodiscard]] std::vector<std::uint16_t> extract_info(
        std::span<const std::uint16_t> codeword) const;

    /// True iff H * word == 0.
    [[nodiscard]] bool check(std::span<const std::uint16_t> word) const;

    /// Sum-product decode from per-symbol likelihoods (n x q, rows
    /// normalized or not; they are renormalized internally).
    [[nodiscard]] NbLdpcDecodeResult decode(const util::Matrix& likelihoods,
                                            int max_iterations = 50) const;

private:
    struct Edge {
        std::uint32_t var = 0;
        std::uint32_t chk = 0;
        std::uint16_t coeff = 1;
    };

    void build_graph(std::uint64_t seed);
    void gaussian_eliminate();

    NbLdpcParams params_;
    GaloisField gf_;
    std::vector<Edge> edges_;
    std::vector<std::vector<std::uint32_t>> var_edges_;  // edge ids per variable
    std::vector<std::vector<std::uint32_t>> chk_edges_;  // edge ids per check
    // Reduced row-echelon form of H for systematic encoding.
    std::vector<std::vector<std::uint16_t>> rref_;       // rank rows x n
    std::vector<std::uint32_t> pivot_cols_;              // parity positions
    std::vector<std::uint32_t> info_cols_;               // info positions
};

}  // namespace ccap::coding
