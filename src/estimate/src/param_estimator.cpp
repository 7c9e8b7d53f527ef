#include "ccap/estimate/param_estimator.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/solvers.hpp"

namespace ccap::estimate {
namespace {

// Sent symbols the MLE fit reads from the front of the trace.
constexpr std::size_t kMleMaxSymbols = 2048;

struct BlockCounts {
    std::size_t matches = 0;
    std::size_t substitutions = 0;
    std::size_t deletions = 0;
    std::size_t insertions = 0;

    [[nodiscard]] std::size_t uses() const noexcept {
        return matches + substitutions + deletions + insertions;
    }
};

BlockCounts counts_of(const Alignment& a) {
    BlockCounts c;
    c.matches = a.count(EditOp::match);
    c.substitutions = a.count(EditOp::substitution);
    c.deletions = a.count(EditOp::deletion);
    c.insertions = a.count(EditOp::insertion);
    return c;
}

ParamEstimate rates_from_blocks(std::span<const BlockCounts> blocks) {
    ParamEstimate est;
    std::size_t uses = 0, d = 0, ins = 0, s = 0, m = 0;
    for (const BlockCounts& b : blocks) {
        uses += b.uses();
        d += b.deletions;
        ins += b.insertions;
        s += b.substitutions;
        m += b.matches;
    }
    est.channel_uses = uses;
    est.blocks = blocks.size();
    if (uses > 0) {
        est.p_d.value = static_cast<double>(d) / static_cast<double>(uses);
        est.p_i.value = static_cast<double>(ins) / static_cast<double>(uses);
    }
    if (s + m > 0) est.p_s.value = static_cast<double>(s) / static_cast<double>(s + m);
    return est;
}

using SymbolBlock = std::pair<std::vector<std::uint8_t>, std::vector<std::uint8_t>>;

struct BlockSplit {
    std::vector<SymbolBlock> blocks;
    int max_diff = 1;  ///< max |received - sent| over blocks
};

/// Split the trace pair into (sent, received) byte-block pairs along
/// blockwise end-free alignment boundaries, capped at kMleMaxSymbols
/// sent symbols for tractability.
/// Shorter blocks keep the drift lattice narrow (cost is linear in the
/// per-block drift range), independent of the alignment block length.
BlockSplit split_blocks(std::span<const std::uint32_t> sent,
                        std::span<const std::uint32_t> received, std::size_t block_len) {
    BlockSplit split;
    const std::size_t eff_block = std::min<std::size_t>(block_len, 256);
    std::size_t sent_pos = 0, recv_pos = 0, used = 0;
    while (sent_pos < sent.size() && used < kMleMaxSymbols) {
        const std::size_t n = std::min(eff_block, sent.size() - sent_pos);
        const std::size_t w = drift_window(n, received.size() - recv_pos);
        const std::size_t consumed =
            align_end_free(sent.subspan(sent_pos, n), received.subspan(recv_pos, w))
                .received_consumed;
        SymbolBlock b;
        b.first.assign(sent.begin() + static_cast<std::ptrdiff_t>(sent_pos),
                       sent.begin() + static_cast<std::ptrdiff_t>(sent_pos + n));
        b.second.assign(received.begin() + static_cast<std::ptrdiff_t>(recv_pos),
                        received.begin() + static_cast<std::ptrdiff_t>(recv_pos + consumed));
        split.max_diff = std::max(
            split.max_diff, static_cast<int>(std::llabs(static_cast<long long>(consumed) -
                                                        static_cast<long long>(n))));
        used += n;
        sent_pos += n;
        recv_pos += consumed;
        split.blocks.push_back(std::move(b));
    }
    return split;
}

/// Keep the bootstrap CI *widths* from the alignment pass, re-centred on a
/// refined point (the widths reflect sampling noise; the re-centring
/// removes the alignment bias).
void recenter_rate(RateEstimate& rate, double new_value) {
    const double half = std::max(new_value * 0.05, (rate.ci_high - rate.ci_low) / 2.0);
    rate.value = new_value;
    rate.ci_low = std::max(0.0, new_value - half);
    rate.ci_high = new_value + half;
}

void check_symbol_range(std::span<const std::uint32_t> sent,
                        std::span<const std::uint32_t> received, unsigned bits_per_symbol) {
    if (bits_per_symbol == 0 || bits_per_symbol > 8)
        throw std::invalid_argument("estimate_params_mle: bits_per_symbol must be in [1,8]");
    const unsigned alphabet = 1U << bits_per_symbol;
    for (std::uint32_t s : sent)
        if (s >= alphabet) throw std::out_of_range("estimate_params_mle: sent symbol");
    for (std::uint32_t s : received)
        if (s >= alphabet) throw std::out_of_range("estimate_params_mle: received symbol");
}

}  // namespace

ParamEstimate rates_from_alignment(const Alignment& alignment) {
    const BlockCounts c = counts_of(alignment);
    return rates_from_blocks(std::span<const BlockCounts>(&c, 1));
}

WindowEstimate estimate_window(std::span<const std::uint32_t> sent,
                               std::span<const std::uint32_t> received) {
    WindowEstimate out;
    if (sent.empty()) {
        out.estimate = ParamEstimate{};
        return out;
    }
    auto [alignment, consumed] = align_end_free(sent, received);
    out.estimate = rates_from_alignment(alignment);
    out.received_consumed = consumed;
    return out;
}

ParamEstimate estimate_params(std::span<const std::uint32_t> sent,
                              std::span<const std::uint32_t> received,
                              const EstimatorOptions& options) {
    if (options.block_len == 0) throw std::invalid_argument("estimate_params: block_len == 0");
    std::vector<BlockCounts> blocks;
    std::size_t sent_pos = 0, recv_pos = 0;
    while (sent_pos < sent.size()) {
        const std::size_t n = std::min(options.block_len, sent.size() - sent_pos);
        const std::size_t w = drift_window(n, received.size() - recv_pos);
        auto [alignment, consumed] =
            align_end_free(sent.subspan(sent_pos, n), received.subspan(recv_pos, w));
        blocks.push_back(counts_of(alignment));
        sent_pos += n;
        recv_pos += consumed;
    }
    // Anything left in the received trace is trailing insertions.
    if (recv_pos < received.size()) {
        BlockCounts tail;
        tail.insertions = received.size() - recv_pos;
        blocks.push_back(tail);
    }
    if (blocks.empty()) {
        // Both traces empty: all-zero estimate.
        return ParamEstimate{};
    }

    ParamEstimate est = rates_from_blocks(blocks);

    // Blocked bootstrap for confidence intervals.
    if (options.bootstrap_rounds > 1 && blocks.size() > 1) {
        util::Rng rng(options.bootstrap_seed);
        std::vector<double> pd_samples, pi_samples, ps_samples;
        pd_samples.reserve(options.bootstrap_rounds);
        pi_samples.reserve(options.bootstrap_rounds);
        ps_samples.reserve(options.bootstrap_rounds);
        std::vector<BlockCounts> resampled(blocks.size());
        for (std::size_t round = 0; round < options.bootstrap_rounds; ++round) {
            for (auto& b : resampled) b = blocks[rng.uniform_below(blocks.size())];
            const ParamEstimate r = rates_from_blocks(resampled);
            pd_samples.push_back(r.p_d.value);
            pi_samples.push_back(r.p_i.value);
            ps_samples.push_back(r.p_s.value);
        }
        const auto fill_ci = [](RateEstimate& rate, std::vector<double>& samples) {
            std::sort(samples.begin(), samples.end());
            const auto at = [&](double pct) {
                const auto idx = static_cast<std::size_t>(pct * (samples.size() - 1));
                return samples[idx];
            };
            rate.ci_low = at(0.025);
            rate.ci_high = at(0.975);
        };
        fill_ci(est.p_d, pd_samples);
        fill_ci(est.p_i, pi_samples);
        fill_ci(est.p_s, ps_samples);
    } else {
        est.p_d.ci_low = est.p_d.ci_high = est.p_d.value;
        est.p_i.ci_low = est.p_i.ci_high = est.p_i.value;
        est.p_s.ci_low = est.p_s.ci_high = est.p_s.value;
    }
    return est;
}

ParamEstimate estimate_params_mle(std::span<const std::uint32_t> sent,
                                  std::span<const std::uint32_t> received,
                                  unsigned bits_per_symbol, const EstimatorOptions& options) {
    check_symbol_range(sent, received, bits_per_symbol);
    if (options.block_len == 0)
        throw std::invalid_argument("estimate_params_mle: block_len == 0");
    const unsigned alphabet = 1U << bits_per_symbol;

    // Seed (and CI shape) from the fast alignment estimator.
    ParamEstimate est = estimate_params(sent, received, options);
    if (sent.empty() && received.empty()) return est;

    const BlockSplit split = split_blocks(sent, received, options.block_len);
    if (split.blocks.empty()) {
        // Nothing was sent; the alignment estimate (pure insertions) stands.
        return est;
    }

    // The lattice clamp must cover every block's end-to-end drift (plus
    // in-block excursions).
    const int max_drift = split.max_diff + 32;

    // Each candidate scores every block on batch-engine lanes: a maximal
    // run of consecutive blocks sharing one sent length is one lockstep
    // call (split_blocks yields at most two: the full blocks and a ragged
    // tail). Each lane is bit-identical to the scalar
    // log2_likelihood on that block, and the fold below runs in block
    // order, so the search sees the same surface bit for bit. One
    // workspace serves the whole fit, so its arenas stop growing after
    // the first candidate.
    std::vector<info::DriftHmm::SymbolSpan> tx, rx;
    tx.reserve(split.blocks.size());
    rx.reserve(split.blocks.size());
    for (const SymbolBlock& b : split.blocks) {
        tx.emplace_back(b.first);
        rx.emplace_back(b.second);
    }
    std::vector<std::size_t> run_ends;  // exclusive end of each equal-length run
    for (std::size_t i = 1; i <= tx.size(); ++i)
        if (i == tx.size() || tx[i].size() != tx[i - 1].size()) run_ends.push_back(i);
    info::LatticeWorkspace ws;

    const auto log_likelihood = [&](double pd, double pi, double ps) {
        if (pd < 0.0 || pi < 0.0 || ps < 0.0 || ps > 1.0 || pd + pi > 0.9) return -1e18;
        info::DriftParams dp;
        dp.p_d = pd;
        dp.p_i = pi;
        dp.p_s = ps;
        dp.alphabet = alphabet;
        dp.max_drift = max_drift;
        dp.max_insert_run = 10;
        const info::DriftHmm hmm(dp);
        double total = 0.0;
        std::size_t begin = 0;
        for (const std::size_t end : run_ends) {
            const auto lanes = hmm.log2_likelihood_batch(
                std::span(tx).subspan(begin, end - begin),
                std::span(rx).subspan(begin, end - begin), ws);
            for (const info::LaneEvidence& e : lanes) {
                const double ll = e.log2_evidence;
                // A block outside the truncation gets a heavy — but finite —
                // penalty so the search surface stays informative.
                total += std::isfinite(ll) ? ll : -1e6;
            }
            begin = end;
        }
        return total;
    };

    double pd = std::clamp(est.p_d.value, 0.001, 0.6);
    double pi = std::clamp(est.p_i.value, 0.001, 0.6);
    double ps = std::clamp(est.p_s.value, 0.0, 0.5);
    for (int sweep = 0; sweep < 2; ++sweep) {
        pd = util::golden_max([&](double x) { return log_likelihood(x, pi, ps); }, 0.0,
                              std::min(0.85, 0.9 - pi), 2e-3)
                 .x;
        pi = util::golden_max([&](double x) { return log_likelihood(pd, x, ps); }, 0.0,
                              std::min(0.85, 0.9 - pd), 2e-3)
                 .x;
        ps = util::golden_max([&](double x) { return log_likelihood(pd, pi, x); }, 0.0, 0.6,
                              2e-3)
                 .x;
    }

    recenter_rate(est.p_d, pd);
    recenter_rate(est.p_i, pi);
    recenter_rate(est.p_s, ps);
    return est;
}

}  // namespace ccap::estimate
