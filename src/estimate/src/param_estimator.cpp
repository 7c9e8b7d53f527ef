#include "ccap/estimate/param_estimator.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <stdexcept>

#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/rng.hpp"

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

using Vec3 = std::array<double, 3>;
using Mat3 = std::array<Vec3, 3>;

// The MLE's Newton fit in theta = ln p (THEORY section 18).
constexpr double kStencilStep = 0.05;  ///< h: stencil offset in theta
constexpr double kMaxStep = 0.7;       ///< cap on a step's largest theta move
constexpr double kStopMove = 2e-3;     ///< stop once a full step moves every rate less
constexpr int kMaxIterations = 20;
constexpr int kMaxHalvings = 12;
constexpr double kSeedFloor = 1e-4;  ///< lowest seed P_s (ln 0 has no Newton step)

/// Cholesky factor l (lower, a = l l^T); false when a is not positive
/// definite.
bool cholesky(const Mat3& a, Mat3& l) {
    l = Mat3{};
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j <= i; ++j) {
            double sum = a[i][j];
            for (std::size_t k = 0; k < j; ++k) sum -= l[i][k] * l[j][k];
            if (i == j) {
                if (!(sum > 0.0)) return false;
                l[i][i] = std::sqrt(sum);
            } else {
                l[i][j] = sum / l[j][j];
            }
        }
    }
    return true;
}

/// Solve l l^T x = b.
Vec3 cholesky_solve(const Mat3& l, const Vec3& b) {
    Vec3 y{}, x{};
    for (std::size_t i = 0; i < 3; ++i) {
        double sum = b[i];
        for (std::size_t k = 0; k < i; ++k) sum -= l[i][k] * y[k];
        y[i] = sum / l[i][i];
    }
    for (std::size_t i = 3; i-- > 0;) {
        double sum = y[i];
        for (std::size_t k = i + 1; k < 3; ++k) sum -= l[k][i] * x[k];
        x[i] = sum / l[i][i];
    }
    return x;
}

/// Cholesky factor of the negated Hessian a, made positive definite first
/// when it is not: its diagonal is shifted past the Gershgorin bound on
/// its smallest eigenvalue, so every row is strictly diagonally dominant.
Mat3 positive_definite_factor(Mat3 a) {
    Mat3 l;
    if (cholesky(a, l)) return l;
    double shift = 0.0, scale = 0.0;
    for (std::size_t i = 0; i < 3; ++i) {
        double off = 0.0;
        for (std::size_t j = 0; j < 3; ++j)
            if (j != i) off += std::fabs(a[i][j]);
        shift = std::max(shift, off - a[i][i]);
        scale = std::max(scale, std::fabs(a[i][i]));
    }
    shift += 1e-3 * (1.0 + scale);
    for (std::size_t i = 0; i < 3; ++i) a[i][i] += shift;
    (void)cholesky(a, l);
    return l;
}

/// Rates at theta = ln p.
Vec3 rates_at(const Vec3& theta) {
    return {std::exp(theta[0]), std::exp(theta[1]), std::exp(theta[2])};
}

/// Whether every stencil point around theta is inside the likelihood's
/// domain (P_d + P_i <= 0.9, P_s <= 1), so no stencil value is the
/// infeasible sentinel.
bool stencil_feasible(const Vec3& theta) {
    const Vec3 p = rates_at(theta);
    const double grow = std::exp(kStencilStep);
    return (p[0] + p[1]) * grow <= 0.9 && p[2] * grow <= 1.0;
}

struct NewtonFit {
    Vec3 p{};
    Vec3 half_width{};  ///< 1.96 sigma of each rate, from the last stencil
    double log2_likelihood = 0.0;
    int iterations = 0;
    bool converged = false;
};

/// Damped Newton ascent of f (a function of the rates) in theta = ln p from
/// `seed`, with observed-information half-widths from the last stencil.
template <typename F>
NewtonFit newton_fit(F&& f, const Vec3& seed) {
    const double h = kStencilStep;
    const auto f_theta = [&](const Vec3& theta) { return f(rates_at(theta)); };
    Vec3 theta{std::log(seed[0]), std::log(seed[1]), std::log(seed[2])};
    double f0 = f_theta(theta);
    NewtonFit fit;
    Mat3 info{};  // factor of the negated theta-Hessian (made positive definite) at `centre`
    Vec3 centre{};
    for (int it = 1; it <= kMaxIterations; ++it) {
        fit.iterations = it;
        Vec3 fp{}, fm{};
        for (std::size_t i = 0; i < 3; ++i) {
            Vec3 t = theta;
            t[i] = theta[i] + h;
            fp[i] = f_theta(t);
            t[i] = theta[i] - h;
            fm[i] = f_theta(t);
        }
        Vec3 g{};
        Mat3 a{};
        for (std::size_t i = 0; i < 3; ++i) {
            g[i] = (fp[i] - fm[i]) / (2.0 * h);
            a[i][i] = -(fp[i] - 2.0 * f0 + fm[i]) / (h * h);
            for (std::size_t j = 0; j < i; ++j) {
                Vec3 t = theta;
                t[i] = theta[i] + h;
                t[j] = theta[j] + h;
                a[i][j] = a[j][i] = -(f_theta(t) - fp[i] - fp[j] + f0) / (h * h);
            }
        }
        info = positive_definite_factor(a);
        centre = theta;
        Vec3 step = cholesky_solve(info, g);
        const double longest =
            std::max({std::fabs(step[0]), std::fabs(step[1]), std::fabs(step[2])});
        if (longest > kMaxStep)
            for (double& s : step) s *= kMaxStep / longest;

        // A full step that moves every p by less than kStopMove means the
        // optimum is within the stencil's resolution: take it unless it
        // lowers f, and stop.
        const Vec3 p_old = rates_at(theta);
        Vec3 trial{};
        for (std::size_t i = 0; i < 3; ++i) trial[i] = theta[i] + step[i];
        const Vec3 p_full = rates_at(trial);
        double moved = 0.0;
        for (std::size_t i = 0; i < 3; ++i)
            moved = std::max(moved, std::fabs(p_full[i] - p_old[i]));
        if (moved < kStopMove) {
            if (stencil_feasible(trial)) {
                const double f_trial = f_theta(trial);
                if (f_trial >= f0) {
                    theta = trial;
                    f0 = f_trial;
                }
            }
            fit.converged = true;
            break;
        }
        // Otherwise halve the step while it lowers f (or leaves the domain).
        int halvings = 0;
        double f_trial = 0.0;
        for (;;) {
            if (stencil_feasible(trial)) {
                f_trial = f_theta(trial);
                if (f_trial >= f0) break;
            }
            if (++halvings > kMaxHalvings) break;
            for (std::size_t i = 0; i < 3; ++i) {
                step[i] *= 0.5;
                trial[i] = theta[i] + step[i];
            }
        }
        if (halvings > kMaxHalvings) break;  // no ascent along the Newton direction
        theta = trial;
        f0 = f_trial;
    }
    fit.p = rates_at(theta);
    fit.log2_likelihood = f0;
    // The observed information in theta is -H ln 2 (f is in bits), and the
    // p-covariance diag(p) (-H ln 2)^-1 diag(p) at the stencil centre.
    const Vec3 pc = rates_at(centre);
    for (std::size_t i = 0; i < 3; ++i) {
        Vec3 e{};
        e[i] = 1.0 / std::log(2.0);
        fit.half_width[i] = 1.96 * std::sqrt(cholesky_solve(info, e)[i]) * pc[i];
    }
    return fit;
}

void set_rate(RateEstimate& rate, double value, double half_width) {
    rate.value = value;
    rate.ci_low = std::max(0.0, value - half_width);
    rate.ci_high = value + half_width;
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

    // Seed from the fast alignment estimator.
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

    Vec3 seed{std::clamp(est.p_d.value, 0.001, 0.6), std::clamp(est.p_i.value, 0.001, 0.6),
              std::max(std::clamp(est.p_s.value, 0.0, 0.5), kSeedFloor)};
    // A seed whose stencil leaves the domain (P_d + P_i near 0.9) is pulled
    // back inside it along the ray to the origin.
    const double room = 0.85 * std::exp(-kStencilStep);
    if (seed[0] + seed[1] > room) {
        const double shrink = room / (seed[0] + seed[1]);
        seed[0] *= shrink;
        seed[1] *= shrink;
    }
    const NewtonFit fit = newton_fit(
        [&](const Vec3& p) { return log_likelihood(p[0], p[1], p[2]); }, seed);
    set_rate(est.p_d, fit.p[0], fit.half_width[0]);
    set_rate(est.p_i, fit.p[1], fit.half_width[1]);
    set_rate(est.p_s, fit.p[2], fit.half_width[2]);
    est.iterations = fit.iterations;
    est.converged = fit.converged;
    est.log2_likelihood = fit.log2_likelihood;
    return est;
}

}  // namespace ccap::estimate
