#include "ccap/estimate/alignment.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "ccap/core/stream_source.hpp"
#include "ccap/estimate/changepoint.hpp"
#include "ccap/estimate/param_estimator.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::estimate;
using Trace = std::vector<std::uint32_t>;

// Scalar Levenshtein DP with full traceback: the reference the
// bit-parallel kernel must reproduce step for step. `end_free` ends the
// traceback at the best last-row prefix (smallest distance, then closest
// to |sent|, first wins) instead of at (n, m).
struct Reference {
    Alignment alignment;
    std::size_t consumed = 0;
};

Reference reference_align(const Trace& sent, const Trace& received, bool end_free) {
    const std::size_t n = sent.size();
    const std::size_t m = received.size();
    std::vector<std::vector<std::uint32_t>> dp(n + 1, std::vector<std::uint32_t>(m + 1, 0));
    for (std::size_t i = 0; i <= n; ++i) dp[i][0] = static_cast<std::uint32_t>(i);
    for (std::size_t j = 0; j <= m; ++j) dp[0][j] = static_cast<std::uint32_t>(j);
    for (std::size_t i = 1; i <= n; ++i)
        for (std::size_t j = 1; j <= m; ++j) {
            const std::uint32_t sub =
                dp[i - 1][j - 1] + (sent[i - 1] == received[j - 1] ? 0U : 1U);
            dp[i][j] = std::min({sub, dp[i - 1][j] + 1U, dp[i][j - 1] + 1U});
        }
    std::size_t end_j = m;
    if (end_free) {
        const auto off_n = [n](std::size_t j) {
            return std::llabs(static_cast<long long>(j) - static_cast<long long>(n));
        };
        end_j = 0;
        for (std::size_t j = 0; j <= m; ++j)
            if (dp[n][j] < dp[n][end_j] ||
                (dp[n][j] == dp[n][end_j] && off_n(j) < off_n(end_j)))
                end_j = j;
    }
    Reference out;
    out.consumed = end_j;
    out.alignment.distance = dp[n][end_j];
    std::size_t i = n, j = end_j;
    std::vector<EditOp> rev;
    while (i > 0 || j > 0) {
        if (i > 0 && j > 0) {
            const bool is_match = sent[i - 1] == received[j - 1];
            if (dp[i - 1][j - 1] + (is_match ? 0U : 1U) == dp[i][j]) {
                rev.push_back(is_match ? EditOp::match : EditOp::substitution);
                --i;
                --j;
                continue;
            }
        }
        if (i > 0 && dp[i - 1][j] + 1U == dp[i][j]) {
            rev.push_back(EditOp::deletion);
            --i;
            continue;
        }
        rev.push_back(EditOp::insertion);
        --j;
    }
    out.alignment.ops.assign(rev.rbegin(), rev.rend());
    for (const EditOp op : rev) ++out.alignment.counts[static_cast<std::size_t>(op)];
    return out;
}

std::size_t reference_distance(const Trace& a, const Trace& b) {
    std::vector<std::size_t> prev(b.size() + 1), cur(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j) prev[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        cur[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j)
            cur[j] = std::min({prev[j - 1] + (a[i - 1] == b[j - 1] ? 0U : 1U), prev[j] + 1,
                               cur[j - 1] + 1});
        std::swap(prev, cur);
    }
    return prev[b.size()];
}

/// "MMSDI"-style rendering of the edit operations.
std::string ops(const Alignment& a) {
    std::string s;
    for (const EditOp op : a.ops) s.push_back("MSDI"[static_cast<int>(op)]);
    return s;
}

/// Same distance, same length, the same op at every step (which fixes
/// every index) and the same counts.
void expect_same_ops(const Alignment& got, const Alignment& want, const std::string& what) {
    EXPECT_EQ(got.distance, want.distance) << what;
    ASSERT_EQ(got.ops.size(), want.ops.size()) << what;
    for (std::size_t k = 0; k < got.ops.size(); ++k)
        ASSERT_TRUE(got.ops[k] == want.ops[k])
            << what << ": first difference at step " << k << " of " << ops(got) << " vs "
            << ops(want);
    EXPECT_EQ(got.counts, want.counts) << what;
}

/// Every entry point against the reference on one trace pair.
void expect_matches_reference(const Trace& sent, const Trace& received, const std::string& what) {
    const Reference full = reference_align(sent, received, false);
    expect_same_ops(align(sent, received), full.alignment, what + " align");

    const Reference free = reference_align(sent, received, true);
    const PrefixAlignment got = align_end_free(sent, received);
    expect_same_ops(got.alignment, free.alignment, what + " align_end_free");
    EXPECT_EQ(got.received_consumed, free.consumed) << what;
    if (!sent.empty()) {
        const WindowEstimate we = estimate_window(sent, received);
        const ParamEstimate want = rates_from_alignment(free.alignment);
        EXPECT_EQ(we.received_consumed, free.consumed) << what;
        EXPECT_EQ(we.estimate.p_d.value, want.p_d.value) << what;
        EXPECT_EQ(we.estimate.p_i.value, want.p_i.value) << what;
        EXPECT_EQ(we.estimate.p_s.value, want.p_s.value) << what;
        EXPECT_EQ(we.estimate.channel_uses, want.channel_uses) << what;
    }
}

Trace random_trace(ccap::util::Rng& rng, std::size_t len, std::uint64_t alphabet) {
    Trace t(len);
    for (auto& s : t) s = static_cast<std::uint32_t>(rng.uniform_below(alphabet));
    return t;
}

/// `sent` through ~10% deletions, ~10% insertions and ~5% substitutions.
Trace corrupt(ccap::util::Rng& rng, const Trace& sent, std::uint64_t alphabet) {
    Trace received;
    for (std::uint32_t s : sent) {
        if (rng.bernoulli(0.1)) continue;
        if (rng.bernoulli(0.1))
            received.push_back(static_cast<std::uint32_t>(rng.uniform_below(alphabet)));
        received.push_back(rng.bernoulli(0.05)
                               ? static_cast<std::uint32_t>(rng.uniform_below(alphabet))
                               : s);
    }
    return received;
}

TEST(Alignment, IdenticalTracesAllMatch) {
    const Trace t = {1, 0, 1, 1, 0};
    const Alignment a = align(t, t);
    EXPECT_EQ(a.distance, 0U);
    EXPECT_EQ(a.count(EditOp::match), t.size());
    EXPECT_EQ(ops(a), "MMMMM");
}

TEST(Alignment, EmptyTraces) {
    EXPECT_EQ(align({}, {}).distance, 0U);
    const Trace t = {1, 2, 3};
    const Alignment del = align(t, {});
    EXPECT_EQ(del.distance, 3U);
    EXPECT_EQ(del.count(EditOp::deletion), 3U);
    const Alignment ins = align({}, t);
    EXPECT_EQ(ins.count(EditOp::insertion), 3U);
}

TEST(Alignment, SingleDeletion) {
    const Trace sent = {1, 0, 1, 1};
    const Trace received = {1, 0, 1};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 1U);
    EXPECT_EQ(a.count(EditOp::deletion), 1U);
    EXPECT_EQ(a.count(EditOp::match), 3U);
}

TEST(Alignment, SingleInsertion) {
    const Trace sent = {1, 0, 1};
    const Trace received = {1, 0, 0, 1};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 1U);
    EXPECT_EQ(a.count(EditOp::insertion), 1U);
}

TEST(Alignment, SingleSubstitution) {
    const Trace sent = {5, 6, 7};
    const Trace received = {5, 9, 7};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 1U);
    EXPECT_EQ(a.count(EditOp::substitution), 1U);
    EXPECT_EQ(ops(a), "MSM");  // sent[1] against received[1]
}

TEST(Alignment, PrefersMatchesOnTies) {
    // "ab" vs "ba" can be (sub, sub) or (ins, match, del); distance 2 either
    // way — the traceback preference keeps substitutions.
    const Trace sent = {1, 2};
    const Trace received = {2, 1};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, 2U);
    EXPECT_EQ(ops(a), "SS");
}

TEST(Alignment, StepsReconstructReceived) {
    ccap::util::Rng rng(1);
    Trace sent(200);
    for (auto& s : sent) s = static_cast<std::uint32_t>(rng.uniform_below(4));
    // Corrupt: delete ~10%, insert ~10%, substitute ~5%.
    Trace received;
    for (std::uint32_t s : sent) {
        if (rng.bernoulli(0.1)) continue;  // delete
        if (rng.bernoulli(0.1)) received.push_back(static_cast<std::uint32_t>(rng.uniform_below(4)));
        received.push_back(rng.bernoulli(0.05) ? static_cast<std::uint32_t>(rng.uniform_below(4))
                                               : s);
    }
    const Alignment a = align(sent, received);
    // Replaying the ops over `sent` must reproduce `received`.
    Trace rebuilt;
    std::size_t i = 0, j = 0;
    for (const EditOp op : a.ops) {
        switch (op) {
            case EditOp::match:
                rebuilt.push_back(sent[i++]);
                ++j;
                break;
            case EditOp::substitution:
                ++i;
                rebuilt.push_back(received[j++]);
                break;
            case EditOp::insertion:
                rebuilt.push_back(received[j++]);
                break;
            case EditOp::deletion:
                ++i;
                break;
        }
    }
    EXPECT_EQ(i, sent.size());
    EXPECT_EQ(rebuilt, received);
}

TEST(Alignment, DistanceMatchesLinearMemoryVersion) {
    ccap::util::Rng rng(2);
    for (int trial = 0; trial < 5; ++trial) {
        Trace a(60), b(70);
        for (auto& s : a) s = static_cast<std::uint32_t>(rng.uniform_below(3));
        for (auto& s : b) s = static_cast<std::uint32_t>(rng.uniform_below(3));
        EXPECT_EQ(align(a, b).distance, reference_distance(a, b));
    }
}

TEST(Alignment, TriangleInequality) {
    ccap::util::Rng rng(3);
    Trace a(40), b(40), c(40);
    for (auto& s : a) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    for (auto& s : b) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    for (auto& s : c) s = static_cast<std::uint32_t>(rng.uniform_below(2));
    EXPECT_LE(align(a, c).distance, align(a, b).distance + align(b, c).distance);
}

TEST(Alignment, Symmetry) {
    const Trace a = {1, 2, 3, 4, 2};
    const Trace b = {1, 3, 4, 4};
    EXPECT_EQ(align(a, b).distance, align(b, a).distance);
}

TEST(Alignment, CountsSumToSteps) {
    const Trace sent = {1, 2, 3, 4, 5, 6};
    const Trace received = {1, 9, 3, 5, 6, 6};
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.count(EditOp::match) + a.count(EditOp::substitution) +
                  a.count(EditOp::deletion) + a.count(EditOp::insertion),
              a.ops.size());
}

// Block-edge lengths (one word, word +- 1, two words +- 1) and a tracker
// sized window, over binary, quaternary, 2^16-symbol (the widest directly
// ranked alphabet) and full 32-bit (sort-ranked) alphabets:
// channel-corrupted windows, truncated windows shorter than the block,
// unrelated traces and the empty window.
TEST(AlignmentKernel, MatchesScalarReference) {
    ccap::util::Rng rng(15);
    for (const std::uint64_t alphabet : {2ULL, 4ULL, 1ULL << 16, 1ULL << 32}) {
        for (const std::size_t n : {0, 1, 63, 64, 65, 127, 128, 129, 2000}) {
            const std::string tag =
                "alphabet " + std::to_string(alphabet) + " n " + std::to_string(n);
            const Trace sent = random_trace(rng, n, alphabet);
            const Trace noisy = corrupt(rng, sent, alphabet);
            Trace window = noisy;
            window.resize(drift_window(n, noisy.size()));
            expect_matches_reference(sent, noisy, tag + " corrupted");
            expect_matches_reference(sent, window, tag + " drift window");
            const Trace truncated(noisy.begin(), noisy.begin() + static_cast<std::ptrdiff_t>(
                                                                     noisy.size() / 2));
            expect_matches_reference(sent, truncated, tag + " truncated");
            expect_matches_reference(sent, random_trace(rng, n + n / 3 + 5, alphabet),
                                     tag + " unrelated");
            expect_matches_reference(sent, {}, tag + " empty window");
            expect_matches_reference({}, noisy, tag + " empty block");
        }
    }
}

// Inputs where many alignments tie on distance, so only the preference
// order picks the path: swaps, periodic shifts, runs of one symbol.
TEST(AlignmentKernel, TieHeavyInputsMatchScalarReference) {
    expect_matches_reference({1, 2}, {2, 1}, "swap");
    expect_matches_reference({1, 2, 1}, {2, 1, 2}, "alternating");
    expect_matches_reference({7}, {7, 7, 7}, "run");
    expect_matches_reference({65535, 65536, 7}, {65536, 65535, 7}, "rank paths' edge");
    expect_matches_reference({65535, 3, 65535}, {3, 65535, 4}, "direct rank edge");
    for (const std::size_t n : {63, 64, 65, 129}) {
        Trace periodic(n), shifted(n + 1), run(n, 3);
        for (std::size_t i = 0; i < n; ++i) periodic[i] = static_cast<std::uint32_t>(i % 2);
        for (std::size_t i = 0; i <= n; ++i) shifted[i] = static_cast<std::uint32_t>((i + 1) % 2);
        const std::string tag = "n " + std::to_string(n);
        expect_matches_reference(periodic, shifted, tag + " shifted period");
        expect_matches_reference(run, Trace(n / 2, 3), tag + " short run");
        expect_matches_reference(run, Trace(n + 40, 3), tag + " long run");
        expect_matches_reference(periodic, Trace(n, 1), tag + " half matches");
    }
}

// Pairs whose best path costs more than the first band sweep covers, so
// only the second sweep is exact: unrelated traces, insertion floods
// (received much longer than sent) and substitution floods, at lengths
// around the block edges and past several blocks.
TEST(AlignmentKernel, SecondSweepPairsMatchScalarReference) {
    ccap::util::Rng rng(17);
    for (const std::uint64_t alphabet : {2ULL, 4ULL}) {
        for (const std::size_t n : {40, 64, 129, 300}) {
            const std::string tag =
                "alphabet " + std::to_string(alphabet) + " n " + std::to_string(n);
            const Trace sent = random_trace(rng, n, alphabet);
            expect_matches_reference(sent, random_trace(rng, n, alphabet), tag + " unrelated");
            expect_matches_reference(sent, random_trace(rng, 2 * n + 70, alphabet),
                                     tag + " unrelated longer");
            expect_matches_reference(sent, random_trace(rng, n / 3 + 1, alphabet),
                                     tag + " unrelated shorter");
            Trace flood;  // about three insertions per sent symbol
            for (const std::uint32_t sym : sent) {
                while (rng.bernoulli(0.75))
                    flood.push_back(static_cast<std::uint32_t>(rng.uniform_below(alphabet)));
                flood.push_back(rng.bernoulli(0.2)
                                    ? static_cast<std::uint32_t>(rng.uniform_below(alphabet))
                                    : sym);
            }
            expect_matches_reference(sent, flood, tag + " insertion flood");
            Trace subs = sent;  // most symbols replaced by another one
            for (std::uint32_t& sym : subs)
                if (rng.bernoulli(0.6))
                    sym = static_cast<std::uint32_t>(
                        (sym + 1 + rng.uniform_below(alphabet - 1)) % alphabet);
            expect_matches_reference(sent, subs, tag + " substitution flood");
        }
    }
}

/// A trace of length `m` related to `sent`: its corrupted copy, cut or
/// topped up with random symbols.
Trace related_trace(ccap::util::Rng& rng, const Trace& sent, std::size_t m,
                    std::uint64_t alphabet, std::uint32_t offset) {
    Trace out = corrupt(rng, sent, alphabet);
    out.resize(std::min(out.size(), m));
    while (out.size() < m)
        out.push_back(static_cast<std::uint32_t>(rng.uniform_below(alphabet)));
    for (std::uint32_t& sym : out) sym += offset;
    return out;
}

// Every shape of the band at the block edges: n in {1, 63, 64, 65, 127,
// 128, 129} against m in {1, n/2, n, 2n}, related and unrelated, over a
// binary alphabet and over four symbols at 70000 and up, which rank
// through the sorted-key Peq path.
TEST(AlignmentKernel, BlockEdgeShapesMatchScalarReference) {
    ccap::util::Rng rng(18);
    for (const std::uint32_t offset : {0U, 70'000U}) {
        const std::uint64_t alphabet = offset == 0 ? 2 : 4;
        for (const std::size_t n : {1, 63, 64, 65, 127, 128, 129}) {
            const Trace plain = random_trace(rng, n, alphabet);
            Trace sent = plain;
            for (std::uint32_t& sym : sent) sym += offset;
            for (const std::size_t m : {std::size_t{1}, n / 2, n, 2 * n}) {
                const std::string tag = "offset " + std::to_string(offset) + " n " +
                                        std::to_string(n) + " m " + std::to_string(m);
                Trace unrelated = random_trace(rng, m, alphabet);
                for (std::uint32_t& sym : unrelated) sym += offset;
                expect_matches_reference(sent, related_trace(rng, plain, m, alphabet, offset),
                                         tag + " related");
                expect_matches_reference(sent, unrelated, tag + " unrelated");
            }
        }
    }
}

// Blockwise windows as the estimators cut them: each sent block against a
// received span padded to drift_window past its own symbols, so the best
// prefix ends well before the span does.
TEST(AlignmentKernel, DriftWindowSpansMatchScalarReference) {
    ccap::util::Rng rng(19);
    for (const std::uint64_t alphabet : {2ULL, 4ULL}) {
        const Trace sent = random_trace(rng, 1500, alphabet);
        const Trace received = corrupt(rng, sent, alphabet);
        std::size_t recv_pos = 0;
        for (std::size_t sent_pos = 0; sent_pos < sent.size(); sent_pos += 300) {
            const Trace block(sent.begin() + static_cast<std::ptrdiff_t>(sent_pos),
                              sent.begin() + static_cast<std::ptrdiff_t>(sent_pos + 300));
            const std::size_t w = drift_window(block.size(), received.size() - recv_pos);
            const Trace span(received.begin() + static_cast<std::ptrdiff_t>(recv_pos),
                             received.begin() + static_cast<std::ptrdiff_t>(recv_pos + w));
            expect_matches_reference(block, span,
                                     "alphabet " + std::to_string(alphabet) + " block at " +
                                         std::to_string(sent_pos));
            recv_pos += align_end_free(block, span).received_consumed;
        }
    }
}

// The tracker's own input: 2000-symbol FaultStreamSource windows under
// every fault preset, alone and padded with the next window's received
// symbols.
TEST(AlignmentKernel, FaultStreamWindowsMatchScalarReference) {
    for (const char* preset : {"none", "storms", "drift", "stuck"}) {
        ccap::core::FaultStreamSource::Config sc;
        sc.params.p_d = 0.1;
        sc.params.p_i = 0.05;
        sc.params.p_s = 0.02;
        sc.params.bits_per_symbol = 2;
        ASSERT_TRUE(ccap::core::named_fault_profile(preset, sc.profile)) << preset;
        sc.window_len = 2000;
        sc.seed = 23;
        ccap::core::FaultStreamSource src(sc);
        // Windows 2 and 3 of the stream, past storm and stuck windows'
        // starts at uses 0 and 4096.
        src.skip(2);
        const ccap::core::StreamChunk a = *src.next();
        const ccap::core::StreamChunk b = *src.next();
        const std::string tag = std::string(preset) + " window " + std::to_string(a.index);
        expect_matches_reference(a.sent, a.received, tag);
        Trace padded = a.received;
        padded.insert(padded.end(), b.received.begin(), b.received.end());
        padded.resize(drift_window(a.sent.size(), padded.size()));
        expect_matches_reference(a.sent, padded, tag + " padded");
    }
}

/// `sent` through deletions at rate `p_del(i)` for sent index i, plus ~2%
/// insertions and ~2% substitutions.
template <typename Rate>
Trace delete_by(ccap::util::Rng& rng, const Trace& sent, std::uint64_t alphabet, Rate p_del) {
    Trace received;
    for (std::size_t i = 0; i < sent.size(); ++i) {
        if (rng.bernoulli(p_del(i))) continue;
        if (rng.bernoulli(0.02))
            received.push_back(static_cast<std::uint32_t>(rng.uniform_below(alphabet)));
        received.push_back(rng.bernoulli(0.02)
                               ? static_cast<std::uint32_t>(rng.uniform_below(alphabet))
                               : sent[i]);
    }
    return received;
}

// The band's top is cut by score: a block leaves the band once the D on
// its bottom row shows no path of the band's cost passes through it. These
// 2000-symbol windows put the deletions (n - m up to ~700) where the
// optimal path bends away from the geometric band's top: crowded at the
// start, at the end, in a burst, and spread at the tracker's worst drift;
// one pads the window past its own symbols, so the received columns left
// exceed the sent rows left below the band's top (a negative exit debt
// there); and one needs the second, certifying sweep.
TEST(AlignmentKernel, PrunedBandTopMatchesScalarReference) {
    ccap::util::Rng rng(20);
    constexpr std::size_t n = 2000;
    for (const std::uint64_t alphabet : {2ULL, 4ULL}) {
        const std::string tag = "alphabet " + std::to_string(alphabet);
        const Trace sent = random_trace(rng, n, alphabet);
        const auto in = [](std::size_t i, std::size_t lo, std::size_t hi) {
            return i >= lo && i < hi;
        };
        const Trace start = delete_by(
            rng, sent, alphabet, [&](std::size_t i) { return in(i, 0, 750) ? 0.9 : 0.02; });
        const Trace end = delete_by(
            rng, sent, alphabet, [&](std::size_t i) { return in(i, 1250, n) ? 0.9 : 0.02; });
        const Trace burst = delete_by(
            rng, sent, alphabet, [&](std::size_t i) { return in(i, 700, 1400) ? 0.85 : 0.05; });
        const Trace spread = delete_by(rng, sent, alphabet, [](std::size_t) { return 0.35; });
        for (const auto& [name, received] : {std::pair{"start", &start}, {"end", &end},
                                             {"burst", &burst}, {"spread", &spread}}) {
            EXPECT_GE(n - received->size(), 500U) << tag << " " << name;
            expect_matches_reference(sent, *received, tag + " deletions at " + name);
        }

        Trace padded = delete_by(rng, sent, alphabet, [](std::size_t) { return 0.1; });
        const Trace tail = random_trace(rng, n, alphabet);
        padded.insert(padded.end(), tail.begin(), tail.end());
        padded.resize(drift_window(n, padded.size()));
        expect_matches_reference(sent, padded, tag + " padded window");

        // Deletions plus a substitution flood: the best path costs more
        // than the first sweep's n - m + 64.
        Trace flood = delete_by(rng, sent, alphabet, [](std::size_t) { return 0.15; });
        for (std::uint32_t& sym : flood)
            if (rng.bernoulli(0.5))
                sym = static_cast<std::uint32_t>((sym + 1 + rng.uniform_below(alphabet - 1)) %
                                                 alphabet);
        EXPECT_GT(align_end_free(sent, flood).alignment.distance, n - flood.size() + 64) << tag;
        expect_matches_reference(sent, flood, tag + " second sweep");
    }
}

/// FNV-1a over little-endian 64-bit words.
struct Fnv {
    std::uint64_t h = 14695981039346656037ULL;
    void add(std::uint64_t v) {
        for (int b = 0; b < 8; ++b) {
            h ^= (v >> (8 * b)) & 0xFFU;
            h *= 1099511628211ULL;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add(bits);
    }
};

/// Digest of the end-free alignment of every window of a 25 x 2000-symbol
/// binary stream at nominal P_d 0.1 under `profile`: alone (as the tracker
/// aligns it) and padded with the next window's received symbols to
/// drift_window (as a trace source carves it). Per window: the op
/// sequence, the distance, the four counts, the prefix consumed and
/// estimate_window's rates.
std::uint64_t window_digest(const ccap::core::FaultProfile& profile, std::uint64_t seed) {
    ccap::core::FaultStreamSource::Config sc;
    sc.params = {0.1, 0.0, 0.0, 1};
    sc.profile = profile;
    sc.window_len = 2000;
    sc.windows = 26;
    sc.seed = seed;
    ccap::core::FaultStreamSource src(sc);
    std::vector<ccap::core::StreamChunk> chunks;
    while (auto c = src.next()) chunks.push_back(std::move(*c));
    Fnv d;
    for (std::size_t w = 0; w + 1 < chunks.size(); ++w) {
        Trace padded = chunks[w].received;
        padded.insert(padded.end(), chunks[w + 1].received.begin(),
                      chunks[w + 1].received.end());
        padded.resize(drift_window(chunks[w].sent.size(), padded.size()));
        for (const Trace* received : {&chunks[w].received, &padded}) {
            const PrefixAlignment got = align_end_free(chunks[w].sent, *received);
            for (const char c : ops(got.alignment)) d.add(static_cast<std::uint64_t>(c));
            d.add(got.alignment.distance);
            for (const EditOp op :
                 {EditOp::match, EditOp::substitution, EditOp::deletion, EditOp::insertion})
                d.add(got.alignment.count(op));
            d.add(got.received_consumed);
            const WindowEstimate we = estimate_window(chunks[w].sent, *received);
            d.add(we.received_consumed);
            d.add(we.estimate.p_d.value);
            d.add(we.estimate.p_i.value);
            d.add(we.estimate.p_s.value);
            d.add(we.estimate.channel_uses);
        }
    }
    return d.h;
}

// Golden digests of the alignments of live drifting windows, recorded
// from the full-band sweep with a stored-step traceback.
TEST(AlignmentKernel, FaultStreamWindowsMatchPinnedDigests) {
    using ccap::core::FaultProfile;
    FaultProfile drift;
    ASSERT_TRUE(ccap::core::named_fault_profile("drift", drift));
    EXPECT_EQ(window_digest(drift, 1), 0xa03f683ee13a07e8ULL) << "drift preset";
    EXPECT_EQ(window_digest(FaultProfile::drifting(0.3, 20011), 2), 0x04e249d2f7988356ULL)
        << "period 20011";
    EXPECT_EQ(window_digest(FaultProfile::drifting(0.4, 1), 3), 0x4cb586e572d8605dULL)
        << "period 1";
    EXPECT_EQ(window_digest(FaultProfile::drifting(0.4, 3), 4), 0xa0b8239f0860186cULL)
        << "period 3";
}

// A trellis too large for the thread's reused scratch runs on its own
// buffers; calls before and after it are unaffected.
TEST(AlignmentKernel, LargeTrellisOutsideTheReusedScratch) {
    ccap::util::Rng rng(16);
    const Trace small_a = random_trace(rng, 300, 4);
    const Trace small_b = corrupt(rng, small_a, 4);
    expect_matches_reference(small_a, small_b, "before");
    const Trace sent = random_trace(rng, 130, 4);
    const Trace received = random_trace(rng, 1 << 17, 4);
    const Alignment a = align(sent, received);
    EXPECT_EQ(a.distance, reference_distance(sent, received));
    EXPECT_EQ(a.count(EditOp::match) + a.count(EditOp::substitution) + a.count(EditOp::deletion),
              sent.size());
    EXPECT_EQ(a.count(EditOp::match) + a.count(EditOp::substitution) +
                  a.count(EditOp::insertion),
              received.size());
    expect_matches_reference(small_a, small_b, "after");
}

// Every entry point refuses a trellis beyond 4e8 cells, before allocating,
// with an error naming the window's size.
TEST(AlignmentKernel, OversizedWindowIsRejected) {
    const Trace sent(20'001, 1), received(20'000, 1);
    const auto expect_rejected = [](const auto& call, const std::string& who) {
        try {
            call();
            ADD_FAILURE() << who << " accepted a 20001 x 20000 window";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(who + ": alignment window of 20001 x 20000"),
                      std::string::npos)
                << e.what();
        }
    };
    expect_rejected([&] { (void)align(sent, received); }, "align");
    expect_rejected([&] { (void)align_end_free(sent, received); }, "align_end_free");
    expect_rejected([&] { (void)estimate_window(sent, received); }, "align_end_free");
    const Trace trace(30'000, 1);
    EXPECT_THROW((void)windowed_rates(trace, trace, 30'000), std::invalid_argument);
}

}  // namespace
