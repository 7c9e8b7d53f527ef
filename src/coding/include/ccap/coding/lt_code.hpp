// LT fountain codes (Luby, FOCS 2002) with a robust-soliton degree
// distribution and a peeling decoder.
//
// Why they live in this repository: Theorem 1 bounds the covert channel by
// the capacity of the *matched erasure channel* (Definition 2 — drop-out
// locations known). Fountain codes are the constructive counterpart: over a
// channel whose erasure locations are known, they deliver the source at
// rate approaching (1 - P_d) with no feedback at all, which is exactly what
// makes the Theorem-1 bound "the capacity of the erasure channel" rather
// than a loose artifact (bench X4 runs this end-to-end over the
// DeletionInsertionChannel's erasure view).
//
// Symbols are opaque 32-bit values (XOR-combinable), so one LT symbol can
// carry an N-bit covert channel symbol directly.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace ccap::coding {

struct LtParams {
    std::size_t k = 100;     ///< number of source symbols
    double c = 0.1;          ///< robust soliton constant
    double delta = 0.5;      ///< decoder failure probability target
    std::uint64_t seed = 1;  ///< shared encoder/decoder seed

    void validate() const;
};

class LtCode {
public:
    explicit LtCode(LtParams params);

    [[nodiscard]] std::size_t k() const noexcept { return params_.k; }

    /// Source indices XOR-combined into encoded symbol `index`
    /// (deterministic given the shared seed).
    [[nodiscard]] std::vector<std::size_t> neighbors(std::uint64_t index) const;

    /// Value of encoded symbol `index` for the given source block.
    [[nodiscard]] std::uint32_t encode_symbol(std::uint64_t index,
                                              std::span<const std::uint32_t> source) const;

    /// The robust-soliton distribution (for tests/inspection); sums to 1,
    /// entry d-1 is P(degree = d).
    [[nodiscard]] const std::vector<double>& degree_distribution() const noexcept {
        return degree_pmf_;
    }

private:
    LtParams params_;
    std::vector<double> degree_pmf_;
    std::vector<double> degree_cdf_;
};

/// Incremental peeling decoder: feed (index, value) pairs of received
/// encoded symbols in any order; query completion.
class LtDecoder {
public:
    explicit LtDecoder(const LtCode& code);

    /// Add one received encoded symbol. Returns true if the source block is
    /// fully decoded afterwards. Duplicate indices are ignored.
    bool add_symbol(std::uint64_t index, std::uint32_t value);

    [[nodiscard]] bool complete() const noexcept { return decoded_count_ == code_->k(); }
    [[nodiscard]] std::size_t symbols_consumed() const noexcept { return consumed_; }

    /// Decoded source block; entries are nullopt until recovered.
    [[nodiscard]] const std::vector<std::optional<std::uint32_t>>& source() const noexcept {
        return source_;
    }

private:
    struct Pending {
        std::vector<std::size_t> remaining;  ///< unresolved source neighbors
        std::uint32_t value = 0;
    };
    void resolve(std::size_t source_index, std::uint32_t value);

    const LtCode* code_;
    std::vector<std::optional<std::uint32_t>> source_;
    std::vector<Pending> pending_;
    std::vector<std::vector<std::size_t>> by_source_;  // pending ids touching source i
    std::vector<std::uint64_t> seen_indices_;
    std::size_t decoded_count_ = 0;
    std::size_t consumed_ = 0;
};

}  // namespace ccap::coding
