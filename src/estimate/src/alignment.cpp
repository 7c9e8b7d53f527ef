#include "ccap/estimate/alignment.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace ccap::estimate {

namespace {

// Bit-parallel Levenshtein trellis (Myers, JACM 1999, in Hyyrö's block
// form). Rows are sent symbols i = 1..n, packed 64 to a word; columns are
// received symbols j = 1..m. Per column and 64-row block the sweep keeps
// the vertical deltas D(i,j) - D(i-1,j) (pv/mv: +1/-1 bits) and the
// horizontal deltas D(i,j) - D(i,j-1) (ph/mh).
//
// Only a diagonal band of blocks is swept (Ukkonen's cut-off): the blocks
// holding the cells a path of cost <= k can visit (see Band). Cells outside
// the band are stood in for by costs of real paths: the row above the top
// block moves right (+1 per column), and a block entering the band at the
// bottom continues the column before it downwards (+1 per row). So every
// swept D is an upper bound on the true one, and it is exact on every cell
// of a path of cost <= k. The band's top block is also dropped once the
// D on its bottom row shows that no such path passes through it (see
// sweep). The swept blocks' deltas are stored, and a traceback rebuilds
// every D it compares from them.

constexpr unsigned kWordBits = 64;

struct BlockDeltas {
    std::uint64_t pv, mv, ph, mh;
};

/// Largest trellis (|sent| x |received| cells) any entry point accepts,
/// checked before anything is allocated.
constexpr std::size_t kMaxCells = 400'000'000;

/// A call that sizes at most this many block deltas and per-column entries
/// leaves its buffers in the thread's scratch for the next call (the band
/// of a 2000-symbol tracker window holds ~2^14 blocks, of which the sweep
/// stores about 70%); a larger call releases them on return, so one big
/// align does not pin its storage for the thread's lifetime.
constexpr std::size_t kRetainBlocks = std::size_t{1} << 19;

/// D(n, j) of a column whose band misses row n.
constexpr std::uint32_t kUnreached = ~0U;

/// The cells a path of cost <= `cost` can visit. Reaching (i, j) costs at
/// least |i - j|; leaving it costs at least |(n - i) - (m - j)| for a path
/// ending at (n, m), and at least max(0, (n - i) - (m - j)) for an end-free
/// one (the sent rows left beyond the received columns left). Their sum is
/// at most `cost` on an interval of rows in each column, which moves down
/// as j grows once `cost` covers the least cost owed at (0, 0).
struct Band {
    std::ptrdiff_t n = 0, m = 0, cost = 0;
    bool end_free = false;

    /// The 64-row blocks [first, last] holding column j's band rows; empty
    /// (first > last) once the band has left the trellis.
    struct Blocks {
        std::size_t first, last;
    };
    [[nodiscard]] Blocks blocks(std::size_t j) const noexcept {
        const auto col = static_cast<std::ptrdiff_t>(j);
        // Both ends of twice the row index; >> 1 is floor division.
        const std::ptrdiff_t mid = 2 * col + n - m;
        std::ptrdiff_t lo = (mid - cost + 1) >> 1;
        std::ptrdiff_t hi = (mid + cost) >> 1;
        if (end_free) {
            lo = std::max(lo, col - cost);
            hi = col + cost;
        }
        lo = std::max<std::ptrdiff_t>(lo, 1);
        hi = std::min(hi, n);
        if (lo > hi) return {1, 0};
        return {static_cast<std::size_t>(lo - 1) / kWordBits,
                static_cast<std::size_t>(hi - 1) / kWordBits};
    }
};

struct Scratch {
    std::vector<std::uint32_t> direct;    ///< symbol -> its peq row (small alphabets)
    std::vector<std::uint32_t> keys;      ///< sorted distinct received symbols (wide ones)
    std::vector<std::uint32_t> rank;      ///< received[j] -> its peq row
    std::vector<std::uint64_t> peq;       ///< [row][block]: sent rows holding the symbol
    std::vector<std::uint64_t> pv, mv;    ///< the current column's vertical deltas
    std::vector<std::uint32_t> last_row;  ///< D(n, j), j = 0..m
    std::vector<std::size_t> col_base;    ///< column j's block b is deltas[col_base[j] + b]
    std::vector<std::size_t> col_first;   ///< column j's first swept block
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

/// Runs `body(scratch)` on the thread's reused scratch, then releases the
/// scratch's buffers if the call stored more than kRetainBlocks entries.
template <typename Body>
auto with_scratch(std::size_t m, Body&& body) {
    Scratch& scratch = thread_scratch();
    auto result = body(scratch);
    if (scratch.deltas_len + m > kRetainBlocks) scratch = Scratch{};
    return result;
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

/// Sweeps the band's columns over s.rank / s.peq (build_peq first). Stores
/// the swept blocks' deltas (see Scratch::col_base and col_first) and
/// D(n, j) in s.last_row, kUnreached where the band misses row n. Requires
/// n, m > 0 and a band cost of at least the least cost owed at (0, 0).
///
/// The band's top block is dropped, for this column and every later one,
/// when no path of cost <= band.cost can pass through it. With r its bottom
/// row and e = (n - r) - (m - j), a row i <= r of column j has
/// D(i, j) >= D(r, j) - (r - i) and owes at least e + (r - i) to finish,
/// so D(r, j) + e bounds every path through rows <= r from below (loosely
/// where e < 0, as the end-free debt stops at 0). Along row r it never
/// falls (Δh >= -1 while e grows by 1), so a dropped block stays dropped
/// (THEORY §16).
void sweep(const Band& band, Scratch& s) {
    const auto n = static_cast<std::size_t>(band.n);
    const auto m = static_cast<std::size_t>(band.m);
    const std::size_t words = words_for(n);

    // Size the store for the geometric band, which leaves the trellis for
    // good after column `end`.
    std::size_t capacity = 0, end = 0;
    for (std::size_t j = 1; j <= m; ++j) {
        const Band::Blocks b = band.blocks(j);
        if (b.first > b.last) break;
        capacity += b.last - b.first + 1;
        end = j;
    }
    BlockDeltas* const deltas = s.grab_deltas(capacity);
    s.col_base.resize(m + 1);
    s.col_first.resize(m + 1);

    // Column 0: D(i, 0) = i, every vertical delta +1 — which is also the
    // column a block entering the band at the bottom starts from.
    s.pv.assign(words, ~std::uint64_t{0});
    s.mv.assign(words, 0);
    s.last_row.assign(m + 1, kUnreached);
    s.last_row[0] = static_cast<std::uint32_t>(n);
    const unsigned last_bit = static_cast<unsigned>((n - 1) % kWordBits);
    std::size_t entered = 0;   // blocks the band has reached so far
    std::uint32_t bottom = 0;  // D(min(64 * entered, n), j - 1)
    std::size_t top = 0;       // the first swept block
    // D(64 * (top + 1), j - 1), the top block's bottom row (unused once the
    // top block is the last one).
    auto top_d = static_cast<std::ptrdiff_t>(std::min<std::size_t>(kWordBits, n));
    std::size_t stored = 0;
    for (std::size_t j = 1; j <= end; ++j) {
        const auto [first, last] = band.blocks(j);
        // Column j - 1's lower bound on a path through the top block.
        const auto top_bound = [&] {
            const auto r = static_cast<std::ptrdiff_t>(kWordBits * (top + 1));
            return top_d + (band.n - r) - (band.m - static_cast<std::ptrdiff_t>(j - 1));
        };
        while (top < first || (top < last && top_bound() > band.cost)) {
            ++top;
            top_d += std::popcount(s.pv[top]) - std::popcount(s.mv[top]);
        }
        for (; entered <= last; ++entered)
            bottom += static_cast<std::uint32_t>(
                std::min<std::size_t>(kWordBits, n - entered * kWordBits));
        const std::uint64_t* eq_col = s.peq.data() + s.rank[j - 1] * words;
        s.col_first[j] = top;
        s.col_base[j] = stored - top;
        stored += last - top + 1;
        BlockDeltas* out = deltas + s.col_base[j];
        // The carry into the top block is a +1 horizontal delta: row 0's
        // D(0, j) = j, or the row above the band moving right.
        std::uint64_t hin_pos = 1, hin_neg = 0;
        std::uint64_t ph = 0, mh = 0;
        for (std::size_t b = top; b <= last; ++b) {
            const std::uint64_t pv = s.pv[b];
            const std::uint64_t mv = s.mv[b];
            const std::uint64_t eq = eq_col[b] | hin_neg;
            const std::uint64_t xv = eq_col[b] | mv;
            const std::uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
            ph = mv | ~(xh | pv);
            mh = pv & xh;
            const std::uint64_t ph_in = (ph << 1) | hin_pos;
            const std::uint64_t mh_in = (mh << 1) | hin_neg;
            const std::uint64_t pv_out = mh_in | ~(xv | ph_in);
            const std::uint64_t mv_out = ph_in & xv;
            s.pv[b] = pv_out;
            s.mv[b] = mv_out;
            out[b] = {pv_out, mv_out, ph, mh};
            hin_pos = ph >> (kWordBits - 1);
            hin_neg = mh >> (kWordBits - 1);
        }
        top_d += static_cast<std::ptrdiff_t>(out[top].ph >> (kWordBits - 1)) -
                 static_cast<std::ptrdiff_t>(out[top].mh >> (kWordBits - 1));
        // ph/mh still hold the last block's horizontal deltas, whose bottom
        // row is row n once the band holds n's block.
        const bool holds_n = last + 1 == words;
        const unsigned edge = holds_n ? last_bit : kWordBits - 1;
        bottom += static_cast<std::uint32_t>((ph >> edge) & 1U);
        bottom -= static_cast<std::uint32_t>((mh >> edge) & 1U);
        if (holds_n) s.last_row[j] = bottom;
    }
}

/// Sweeps `band`, picks an end column with `pick(s.last_row)` and returns
/// it. The picked D is the cost of a real path, so the optimum is at most
/// that. When it is within `band.cost`, every optimal path lies in the band
/// and the sweep was exact; otherwise one more sweep at that cost is.
/// `band.cost` ends as the cost of the exact sweep.
template <typename Pick>
std::size_t certified_sweep(Band& band, Scratch& s, Pick pick) {
    sweep(band, s);
    std::size_t j = pick(s.last_row);
    if (s.last_row[j] > band.cost) {
        band.cost = s.last_row[j];
        sweep(band, s);
        j = pick(s.last_row);
    }
    return j;
}

/// Traceback from (n, j) with D(n, j) = `distance` over an exact sweep in
/// `s` (unused when n or j is 0), preferring match > substitution >
/// deletion > insertion — the scalar DP's order, on the same integers.
/// Every cell it visits lies on an optimal path, so its D is exact; a
/// neighbour it passes over has a D at least the true one, and every branch
/// test answers as on the full trellis. The ops are written back to front,
/// and the counts kept as the walk goes.
Alignment trace_back(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received,
                     const Scratch& s, std::size_t j, std::size_t distance) {
    const auto bit = [](std::uint64_t w, std::size_t k) {
        return static_cast<long long>((w >> k) & 1U);
    };
    Alignment out;
    out.distance = distance;
    const std::size_t n = sent.size();
    const std::size_t end_j = j;
    out.ops.resize(n + j);
    EditOp* const ops = out.ops.data();
    std::size_t at = n + j;  // ops[at..] holds the path walked so far
    std::size_t diagonal = 0, matches = 0;
    std::size_t i = n;
    auto d = static_cast<long long>(distance);  // D(i, j)
    while (i > 0 && j > 0) {
        const std::size_t k = (i - 1) % kWordBits;
        const BlockDeltas* col = s.deltas.get() + s.col_base[j];
        const BlockDeltas& c = col[(i - 1) / kWordBits];
        const long long up = d - (bit(c.pv, k) - bit(c.mv, k));  // D(i-1, j)
        // D(i-1, j-1): the horizontal delta of the row above, which is
        // the previous block's top bit at a block edge, and +1 on row 0
        // and on the row above the column's first swept block.
        long long dh_above = 1;
        if (i > 1 && (k != 0 || (i - 2) / kWordBits >= s.col_first[j])) {
            const BlockDeltas& a = col[(i - 2) / kWordBits];
            dh_above = bit(a.ph, (i - 2) % kWordBits) - bit(a.mh, (i - 2) % kWordBits);
        }
        const long long diag = up - dh_above;
        const bool is_match = sent[i - 1] == received[j - 1];
        if (diag + (is_match ? 0 : 1) == d) {
            ops[--at] = is_match ? EditOp::match : EditOp::substitution;
            ++diagonal;
            matches += is_match ? 1 : 0;
            d = diag;
            --i;
            --j;
        } else if (up + 1 == d) {
            ops[--at] = EditOp::deletion;
            d = up;
            --i;
        } else {
            ops[--at] = EditOp::insertion;
            d -= bit(c.ph, k) - bit(c.mh, k);
            --j;
        }
    }
    // On row 0 only insertions remain, on column 0 only deletions.
    for (; i > 0; --i) ops[--at] = EditOp::deletion;
    for (; j > 0; --j) ops[--at] = EditOp::insertion;
    out.ops.erase(out.ops.begin(), out.ops.begin() + static_cast<std::ptrdiff_t>(at));
    out.counts = {matches, diagonal - matches, n - diagonal, end_j - diagonal};
    return out;
}

}  // namespace

Alignment align(std::span<const std::uint32_t> sent, std::span<const std::uint32_t> received) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    check_cells(n, m, "align");
    if (n == 0 || m == 0) return trace_back(sent, received, Scratch{}, m, n + m);
    return with_scratch(m, [&](Scratch& s) {
        build_peq(sent, received, s);
        const auto sn = static_cast<std::ptrdiff_t>(n), sm = static_cast<std::ptrdiff_t>(m);
        Band band{sn, sm, std::abs(sn - sm) + kWordBits, false};
        const std::size_t j = certified_sweep(band, s, [m](const auto&) { return m; });
        return trace_back(sent, received, s, j, s.last_row[j]);
    });
}

PrefixAlignment align_end_free(std::span<const std::uint32_t> sent,
                               std::span<const std::uint32_t> received) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    check_cells(n, m, "align_end_free");
    // The empty prefix is the only one (m = 0) or the best (D(0, j) = j).
    if (n == 0 || m == 0) return {trace_back(sent, received, Scratch{}, 0, n), 0};
    return with_scratch(m, [&](Scratch& s) {
        build_peq(sent, received, s);
        const auto sn = static_cast<std::ptrdiff_t>(n), sm = static_cast<std::ptrdiff_t>(m);
        Band band{sn, sm, std::max<std::ptrdiff_t>(0, sn - sm) + kWordBits, true};
        // Smallest distance; ties go to the prefix closest to n, and the
        // first such prefix wins.
        const auto best_prefix = [n, m](const std::vector<std::uint32_t>& last_row) {
            const auto off_n = [n](std::size_t j) {
                return std::llabs(static_cast<long long>(j) - static_cast<long long>(n));
            };
            std::size_t best_j = 0;
            for (std::size_t j = 1; j <= m; ++j) {
                const std::uint32_t dj = last_row[j];
                const std::uint32_t db = last_row[best_j];
                if (dj < db || (dj == db && off_n(j) < off_n(best_j))) best_j = j;
            }
            return best_j;
        };
        const std::size_t j = certified_sweep(band, s, best_prefix);
        return PrefixAlignment{trace_back(sent, received, s, j, s.last_row[j]), j};
    });
}

}  // namespace ccap::estimate
