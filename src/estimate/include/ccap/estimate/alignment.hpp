// Edit-distance alignment of sent vs. received symbol traces.
//
// A practitioner measuring a real covert channel observes two streams: what
// the sender pushed and what the receiver sampled. To apply the paper's
// capacity corrections they need (P_d, P_i, P_s), which requires deciding
// which received symbol corresponds to which sent one. We use Levenshtein
// alignment (unit costs for deletion/insertion/substitution, 0 for match)
// with full traceback; ties are broken to prefer matches, then
// substitutions, making the classification deterministic.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

namespace ccap::estimate {

enum class EditOp : std::uint8_t { match, substitution, deletion, insertion };

struct Alignment {
    /// The edit operations in trellis order. They fix every index: a match
    /// or substitution consumes one sent and one received symbol, a deletion
    /// one sent symbol, an insertion one received symbol.
    std::vector<EditOp> ops;
    std::size_t distance = 0;  ///< Levenshtein distance
    std::array<std::size_t, 4> counts{};  ///< ops of each kind, indexed by EditOp

    [[nodiscard]] std::size_t count(EditOp op) const noexcept {
        return counts[static_cast<std::size_t>(op)];
    }
};

/// Both entry points run one bit-parallel Levenshtein kernel (Myers'
/// block recurrence) over a diagonal band of the trellis: the 64-row
/// blocks a path of cost <= k can reach (Ukkonen's cut-off), less the top
/// blocks whose cost so far already rules such a path out. The first
/// sweep takes k = |sent| - |received| + 64 for align_end_free (64 when
/// received is the longer one) and ||sent| - |received|| + 64 for align;
/// when the best path it finds costs more than k, a second sweep at that
/// cost is exact. Time is O(band blocks) per sweep, at most
/// O(|sent|·|received|/64). The result holds one byte per edit op and
/// the four op counts, which the traceback keeps as it walks. Results are
/// those of the full scalar DP, op for op (THEORY §16).
/// Each throws std::invalid_argument, before allocating, when
/// |sent|·|received| exceeds 4e8 cells: align longer traces blockwise
/// (see param_estimator.hpp).

/// Align two symbol traces end to end.
[[nodiscard]] Alignment align(std::span<const std::uint32_t> sent,
                              std::span<const std::uint32_t> received);

/// End-free alignment: all of `sent` against the *prefix* of `received`
/// with the smallest distance (ties go to the prefix length closest to
/// |sent|, then to the shorter one), and how many received symbols that
/// prefix holds.
struct PrefixAlignment {
    Alignment alignment;
    std::size_t received_consumed = 0;
};
[[nodiscard]] PrefixAlignment align_end_free(std::span<const std::uint32_t> sent,
                                             std::span<const std::uint32_t> received);

}  // namespace ccap::estimate
