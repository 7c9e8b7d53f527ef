#include "ccap/estimate/alignment.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccap::estimate {

std::size_t Alignment::count(EditOp op) const noexcept {
    std::size_t c = 0;
    for (const EditStep& s : steps)
        if (s.op == op) ++c;
    return c;
}

namespace {

// Bit-parallel Levenshtein trellis (Myers, JACM 1999, in Hyyrö's block
// form). Rows are sent symbols i = 1..n, packed 64 to a word; columns are
// received symbols j = 1..m. Per column and 64-row block the sweep keeps
// the vertical deltas D(i,j) - D(i-1,j) (pv/mv: +1/-1 bits) and the
// horizontal deltas D(i,j) - D(i,j-1) (ph/mh). The deltas are exact, so a
// traceback rebuilds every D it compares from them.

constexpr unsigned kWordBits = 64;

struct BlockDeltas {
    std::uint64_t pv, mv, ph, mh;
};

/// Largest trellis (|sent| x |received| cells) any entry point accepts,
/// checked before anything is allocated.
constexpr std::size_t kMaxCells = 400'000'000;

/// A call whose trellis fits in this many block-columns runs on the
/// thread's reused scratch (a 2000-symbol tracker window needs ~2^17);
/// larger calls get their own buffers, released on return, so one big
/// align does not pin its storage for the thread's lifetime.
constexpr std::size_t kRetainBlocks = std::size_t{1} << 19;

struct Scratch {
    std::vector<std::uint32_t> direct;    ///< symbol -> its peq row (small alphabets)
    std::vector<std::uint32_t> keys;      ///< sorted distinct received symbols (wide ones)
    std::vector<std::uint32_t> rank;      ///< received[j] -> its peq row
    std::vector<std::uint64_t> peq;       ///< [row][block]: sent rows holding the symbol
    std::vector<std::uint64_t> pv, mv;    ///< the current column's vertical deltas
    std::vector<std::uint32_t> last_row;  ///< D(n, j), j = 0..m
    std::unique_ptr<BlockDeltas[]> deltas;
    std::size_t deltas_len = 0;

    BlockDeltas* grab_deltas(std::size_t len) {
        if (deltas_len < len) {
            deltas.reset();
            deltas = std::make_unique_for_overwrite<BlockDeltas[]>(len);
            deltas_len = len;
        }
        return deltas.get();
    }
};

std::size_t words_for(std::size_t n) { return (n + kWordBits - 1) / kWordBits; }

void check_cells(std::size_t n, std::size_t m, const char* who) {
    if (m != 0 && n > kMaxCells / m)
        throw std::invalid_argument(std::string(who) + ": alignment window of " +
                                    std::to_string(n) + " x " + std::to_string(m) +
                                    " symbols exceeds the " + std::to_string(kMaxCells) +
                                    "-cell limit");
}

Scratch& thread_scratch() {
    thread_local Scratch scratch;
    return scratch;
}

/// Runs `body(scratch)` on the thread's reused scratch when the n x m
/// trellis is small enough to keep, else on a scratch freed afterwards.
template <typename Body>
auto with_scratch(std::size_t n, std::size_t m, Body&& body) {
    if ((m + 1) * (words_for(n) + 1) <= kRetainBlocks) return body(thread_scratch());
    Scratch scratch;
    return body(scratch);
}

/// Fills s.rank (received[j] -> its Peq row) and s.peq ([row][block]:
/// the sent rows holding that symbol). Rows exist only for symbols the
/// received trace holds, so the table never outgrows the trellis; a
/// received symbol absent from `sent` keeps an all-zero row. Symbols
/// below 2^16 (every CLI alphabet) are ranked through a direct table,
/// wider ones by sorting.
void build_peq(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received,
               Scratch& s) {
    constexpr std::uint32_t kDirectSymbols = 1U << 16;
    constexpr std::uint32_t kAbsent = ~0U;
    const std::size_t words = words_for(sent.size());
    std::size_t rows = 0;
    const auto fill = [&](auto row_of) {  // row_of(symbol): its row, or kAbsent
        s.peq.assign(rows * words, 0);
        for (std::size_t i = 0; i < sent.size(); ++i) {
            const std::uint32_t r = row_of(sent[i]);
            if (r != kAbsent)
                s.peq[r * words + i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
        }
    };
    s.rank.resize(received.size());
    const std::uint32_t top = *std::max_element(received.begin(), received.end());
    if (top < kDirectSymbols) {
        s.direct.assign(std::size_t{top} + 1, kAbsent);
        for (std::size_t j = 0; j < received.size(); ++j) {
            std::uint32_t& row = s.direct[received[j]];
            if (row == kAbsent) row = static_cast<std::uint32_t>(rows++);
            s.rank[j] = row;
        }
        fill([&](std::uint32_t sym) { return sym <= top ? s.direct[sym] : kAbsent; });
        return;
    }
    s.keys.assign(received.begin(), received.end());
    std::sort(s.keys.begin(), s.keys.end());
    s.keys.erase(std::unique(s.keys.begin(), s.keys.end()), s.keys.end());
    rows = s.keys.size();
    const auto row_of = [&](std::uint32_t sym) {
        const auto it = std::lower_bound(s.keys.begin(), s.keys.end(), sym);
        return it != s.keys.end() && *it == sym ? static_cast<std::uint32_t>(it - s.keys.begin())
                                                : kAbsent;
    };
    for (std::size_t j = 0; j < received.size(); ++j) s.rank[j] = row_of(received[j]);
    fill(row_of);
}

/// Sweeps the columns of D for `sent` x `received` and returns D(n, m).
/// `deltas` (m * words_for(n) entries, column-major) receives each
/// column's block deltas; `last_row` (m + 1 entries), unless null, receives
/// D(n, j). Requires n, m > 0.
std::uint32_t sweep(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received,
                    Scratch& s, BlockDeltas* deltas, std::uint32_t* last_row) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    const std::size_t words = words_for(n);

    build_peq(sent, received, s);

    // Column 0: D(i, 0) = i, every vertical delta +1.
    s.pv.assign(words, ~std::uint64_t{0});
    s.mv.assign(words, 0);
    const unsigned last_bit = static_cast<unsigned>((n - 1) % kWordBits);
    std::uint32_t score = static_cast<std::uint32_t>(n);
    if (last_row != nullptr) last_row[0] = score;
    for (std::size_t j = 0; j < m; ++j) {
        const std::uint64_t* eq_col = s.peq.data() + s.rank[j] * words;
        BlockDeltas* out = deltas + j * words;
        // Row 0 of the trellis is D(0, j) = j: the carry into the top
        // block is a +1 horizontal delta.
        std::uint64_t hin_pos = 1, hin_neg = 0;
        std::uint64_t ph = 0, mh = 0;
        for (std::size_t b = 0; b < words; ++b) {
            const std::uint64_t pv = s.pv[b];
            const std::uint64_t mv = s.mv[b];
            const std::uint64_t eq = eq_col[b] | hin_neg;
            const std::uint64_t xv = eq_col[b] | mv;
            const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
            ph = mv | ~(xh | pv);
            mh = pv & xh;
            const std::uint64_t ph_in = (ph << 1) | hin_pos;
            const std::uint64_t mh_in = (mh << 1) | hin_neg;
            s.pv[b] = mh_in | ~(xv | ph_in);
            s.mv[b] = ph_in & xv;
            out[b] = {s.pv[b], s.mv[b], ph, mh};
            hin_pos = ph >> (kWordBits - 1);
            hin_neg = mh >> (kWordBits - 1);
        }
        // ph/mh still hold the last block's horizontal deltas; row n's
        // is D(n, j) - D(n, j-1).
        score += static_cast<std::uint32_t>((ph >> last_bit) & 1U);
        score -= static_cast<std::uint32_t>((mh >> last_bit) & 1U);
        if (last_row != nullptr) last_row[j + 1] = score;
    }
    return score;
}

/// Traceback from (n, j) with D(n, j) = `distance`, preferring match >
/// substitution > deletion > insertion — the scalar DP's order, on the
/// same integers.
Alignment trace_back(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received,
                     const BlockDeltas* deltas, std::size_t j, std::size_t distance) {
    const std::size_t words = words_for(sent.size());
    const auto bit = [](std::uint64_t w, std::size_t k) {
        return static_cast<long long>((w >> k) & 1U);
    };
    Alignment out;
    out.distance = distance;
    out.steps.reserve(std::max(sent.size(), j));
    std::size_t i = sent.size();
    auto d = static_cast<long long>(distance);  // D(i, j)
    while (i > 0 && j > 0) {
        const std::size_t k = (i - 1) % kWordBits;
        const BlockDeltas* col = deltas + (j - 1) * words;
        const BlockDeltas& c = col[(i - 1) / kWordBits];
        const long long up = d - (bit(c.pv, k) - bit(c.mv, k));  // D(i-1, j)
        // D(i-1, j-1): the horizontal delta of the row above, which is
        // the previous block's top bit at a block edge and +1 on row 0.
        long long dh_above = 1;
        if (i > 1) {
            const BlockDeltas& a = col[(i - 2) / kWordBits];
            dh_above = bit(a.ph, (i - 2) % kWordBits) - bit(a.mh, (i - 2) % kWordBits);
        }
        const long long diag = up - dh_above;
        const bool is_match = sent[i - 1] == received[j - 1];
        if (diag + (is_match ? 0 : 1) == d) {
            out.steps.push_back({is_match ? EditOp::match : EditOp::substitution, i - 1, j - 1});
            d = diag;
            --i;
            --j;
        } else if (up + 1 == d) {
            out.steps.push_back({EditOp::deletion, i - 1, 0});
            d = up;
            --i;
        } else {
            out.steps.push_back({EditOp::insertion, 0, j - 1});
            d -= bit(c.ph, k) - bit(c.mh, k);
            --j;
        }
    }
    // On row 0 only insertions remain, on column 0 only deletions.
    for (; i > 0; --i) out.steps.push_back({EditOp::deletion, i - 1, 0});
    for (; j > 0; --j) out.steps.push_back({EditOp::insertion, 0, j - 1});
    std::reverse(out.steps.begin(), out.steps.end());
    return out;
}

}  // namespace

Alignment align(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    check_cells(n, m, "align");
    if (n == 0 || m == 0)
        return trace_back(sent, received, nullptr, m, n + m);
    return with_scratch(n, m, [&](Scratch& s) {
        BlockDeltas* deltas = s.grab_deltas(m * words_for(n));
        const std::uint32_t distance = sweep(sent, received, s, deltas, nullptr);
        return trace_back(sent, received, deltas, m, distance);
    });
}

PrefixAlignment align_end_free(std::span<const std::uint32_t> sent,
                               std::span<const std::uint32_t> received) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    check_cells(n, m, "align_end_free");
    // The empty prefix is the only one (m = 0) or the best (D(0, j) = j).
    if (n == 0 || m == 0)
        return {trace_back(sent, received, nullptr, 0, n), 0};
    return with_scratch(n, m, [&](Scratch& s) {
        BlockDeltas* deltas = s.grab_deltas(m * words_for(n));
        s.last_row.resize(m + 1);
        sweep(sent, received, s, deltas, s.last_row.data());
        // Smallest distance; ties go to the prefix closest to n, and the
        // first such prefix wins.
        const auto off_n = [n](std::size_t j) {
            return std::llabs(static_cast<long long>(j) - static_cast<long long>(n));
        };
        std::size_t best_j = 0;
        for (std::size_t j = 1; j <= m; ++j) {
            const std::uint32_t dj = s.last_row[j];
            const std::uint32_t db = s.last_row[best_j];
            if (dj < db || (dj == db && off_n(j) < off_n(best_j))) best_j = j;
        }
        return PrefixAlignment{trace_back(sent, received, deltas, best_j, s.last_row[best_j]),
                               best_j};
    });
}

}  // namespace ccap::estimate
