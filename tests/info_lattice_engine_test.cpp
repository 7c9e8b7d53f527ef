// Tests for the zero-allocation lattice engine (lattice_engine.hpp).
//
// The contract under test has three layers:
//   1. the engine is *bit-identical* to the seed DriftHmm implementation
//      (asserted with EXPECT_EQ against a faithful re-implementation of the
//      seed's vector<vector<double>> lattice embedded below);
//   2. the forward pass sweeps exactly the reachable drift window of each
//      row, which is narrower than the valid window on early rows;
//   3. reusing one LatticeWorkspace across heterogeneous calls changes
//      nothing — results are bit-identical to fresh-workspace runs.
#include "ccap/info/lattice_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/rng.hpp"

namespace {

using ccap::info::DriftHmm;
using ccap::info::DriftParams;
using ccap::info::LatticeWorkspace;
using ccap::info::MarkovSource;
using ccap::util::Matrix;
using ccap::util::Rng;

using Bits = std::vector<std::uint8_t>;

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

// ---------------------------------------------------------------------------
// Faithful re-implementation of the pre-engine (seed) lattice: full-band
// vector<vector<double>> rows, identical loop structure and floating-point
// operation order. This is the bit-identity reference.
// ---------------------------------------------------------------------------

struct LegacySlices {
    std::vector<std::vector<double>> rows;
    std::vector<double> log2_scale;
};

struct LegacyLattice {
    const DriftParams& p;
    std::span<const std::uint8_t> rx;
    std::size_t n, m;
    int d_max;
    std::size_t width;
    double inv_m_alpha;
    std::vector<double> ins_pow, emit_tab, trail_pow;

    LegacyLattice(const DriftParams& params, std::span<const std::uint8_t> received,
                  std::size_t tx_len)
        : p(params),
          rx(received),
          n(tx_len),
          m(received.size()),
          d_max(params.max_drift),
          width(static_cast<std::size_t>(2 * params.max_drift + 1)),
          inv_m_alpha(1.0 / static_cast<double>(params.alphabet)) {
        ins_pow.resize(static_cast<std::size_t>(p.max_insert_run) + 1);
        ins_pow[0] = 1.0;
        for (std::size_t g = 1; g < ins_pow.size(); ++g)
            ins_pow[g] = ins_pow[g - 1] * p.p_i * inv_m_alpha;
        const auto m_alpha = static_cast<std::size_t>(p.alphabet);
        const double p_sub = p.p_s / (static_cast<double>(p.alphabet) - 1.0);
        emit_tab.assign(m_alpha * m_alpha, p_sub);
        for (std::size_t s = 0; s < m_alpha; ++s) emit_tab[s * m_alpha + s] = 1.0 - p.p_s;
        trail_pow.resize(m + 1);
        trail_pow[0] = 1.0;
        for (std::size_t k = 1; k <= m; ++k)
            trail_pow[k] = trail_pow[k - 1] * p.p_i * inv_m_alpha;
    }

    [[nodiscard]] std::size_t idx(int d) const { return static_cast<std::size_t>(d + d_max); }
    [[nodiscard]] bool drift_ok(std::size_t j, int d) const {
        if (d < -d_max || d > d_max) return false;
        const long long r = static_cast<long long>(j) + d;
        return r >= 0 && r <= static_cast<long long>(m);
    }
    [[nodiscard]] double emit(std::uint8_t r, std::uint8_t s) const {
        return emit_tab[static_cast<std::size_t>(r) * p.alphabet + s];
    }
    [[nodiscard]] double emit_prior(std::uint8_t r, std::span<const double> q) const {
        const double* row = emit_tab.data() + static_cast<std::size_t>(r) * p.alphabet;
        double e = 0.0;
        for (std::size_t s = 0; s < q.size(); ++s) e += q[s] * row[s];
        return e;
    }
    [[nodiscard]] double trailing(int d) const {
        const long long k = static_cast<long long>(m) - (static_cast<long long>(n) + d);
        if (k < 0) return 0.0;
        return trail_pow[static_cast<std::size_t>(k)] * (1.0 - p.p_i);
    }

    template <typename PriorFn>
    LegacySlices forward(PriorFn&& prior_row) const {
        LegacySlices a;
        a.rows.assign(n + 1, std::vector<double>(width, 0.0));
        a.log2_scale.assign(n + 1, 0.0);
        a.rows[0][idx(0)] = 1.0;
        for (std::size_t j = 1; j <= n; ++j) {
            const auto q = prior_row(j - 1);
            auto& cur = a.rows[j];
            const auto& prev = a.rows[j - 1];
            for (int dp = -d_max; dp <= d_max; ++dp) {
                if (!drift_ok(j - 1, dp)) continue;
                const double ap = prev[idx(dp)];
                if (ap == 0.0) continue;
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
                for (int g = 0; g <= p.max_insert_run; ++g) {
                    const int d = dp + g - 1;
                    if (!drift_ok(j, d)) continue;
                    const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                    if (r1 > m) break;
                    double w = 0.0;
                    w += ins_pow[static_cast<std::size_t>(g)] * p.p_d;
                    if (g >= 1)
                        w += ins_pow[static_cast<std::size_t>(g - 1)] * p.p_t() *
                             emit_prior(rx[r1 - 1], q);
                    cur[idx(d)] += ap * w;
                }
            }
            double norm = 0.0;
            for (double v : cur) norm += v;
            if (norm <= 0.0) {
                a.log2_scale[j] = kNegInf;
                continue;
            }
            for (double& v : cur) v /= norm;
            a.log2_scale[j] = a.log2_scale[j - 1] + std::log2(norm);
        }
        return a;
    }

    template <typename PriorFn>
    LegacySlices backward(PriorFn&& prior_row) const {
        LegacySlices b;
        b.rows.assign(n + 1, std::vector<double>(width, 0.0));
        b.log2_scale.assign(n + 1, 0.0);
        {
            auto& last = b.rows[n];
            double norm = 0.0;
            for (int d = -d_max; d <= d_max; ++d) {
                if (!drift_ok(n, d)) continue;
                last[idx(d)] = trailing(d);
                norm += last[idx(d)];
            }
            if (norm > 0.0) {
                for (double& v : last) v /= norm;
                b.log2_scale[n] = std::log2(norm);
            } else {
                b.log2_scale[n] = kNegInf;
            }
        }
        for (std::size_t j = n; j-- > 0;) {
            const auto q = prior_row(j);
            auto& cur = b.rows[j];
            const auto& next = b.rows[j + 1];
            for (int dp = -d_max; dp <= d_max; ++dp) {
                if (!drift_ok(j, dp)) continue;
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j) + dp);
                double acc = 0.0;
                for (int g = 0; g <= p.max_insert_run; ++g) {
                    const int d = dp + g - 1;
                    if (!drift_ok(j + 1, d)) continue;
                    const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                    if (r1 > m) break;
                    double w = ins_pow[static_cast<std::size_t>(g)] * p.p_d;
                    if (g >= 1)
                        w += ins_pow[static_cast<std::size_t>(g - 1)] * p.p_t() *
                             emit_prior(rx[r1 - 1], q);
                    acc += w * next[idx(d)];
                }
                cur[idx(dp)] = acc;
            }
            double norm = 0.0;
            for (double v : cur) norm += v;
            if (norm <= 0.0) {
                b.log2_scale[j] = kNegInf;
                continue;
            }
            for (double& v : cur) v /= norm;
            b.log2_scale[j] = b.log2_scale[j + 1] + std::log2(norm);
        }
        return b;
    }
};

double legacy_log2_likelihood(const DriftParams& params, const Bits& tx, const Bits& rx) {
    LegacyLattice lat(params, rx, tx.size());
    std::vector<double> point(params.alphabet, 0.0);
    const auto prior = [&](std::size_t j) -> std::span<const double> {
        std::fill(point.begin(), point.end(), 0.0);
        point[tx[j]] = 1.0;
        return point;
    };
    const LegacySlices a = lat.forward(prior);
    if (a.log2_scale.back() == kNegInf) return kNegInf;
    double tail = 0.0;
    for (int d = -params.max_drift; d <= params.max_drift; ++d)
        if (lat.drift_ok(tx.size(), d)) tail += a.rows.back()[lat.idx(d)] * lat.trailing(d);
    if (tail <= 0.0) return kNegInf;
    return a.log2_scale.back() + std::log2(tail);
}

Matrix legacy_posteriors(const DriftParams& params, const Matrix& priors, const Bits& rx,
                         double* log2_evidence) {
    const std::size_t n = priors.rows();
    const unsigned m_alpha = params.alphabet;
    LegacyLattice lat(params, rx, n);
    const auto prior = [&](std::size_t j) { return priors.row(j); };
    const LegacySlices a = lat.forward(prior);
    const LegacySlices b = lat.backward(prior);

    if (log2_evidence != nullptr) {
        double tail = 0.0;
        for (int d = -params.max_drift; d <= params.max_drift; ++d)
            if (lat.drift_ok(n, d)) tail += a.rows.back()[lat.idx(d)] * lat.trailing(d);
        *log2_evidence = (tail > 0.0 && a.log2_scale.back() != kNegInf)
                             ? a.log2_scale.back() + std::log2(tail)
                             : kNegInf;
    }

    Matrix post(n, m_alpha);
    std::vector<double> w(m_alpha, 0.0);
    for (std::size_t j = 1; j <= n; ++j) {
        std::fill(w.begin(), w.end(), 0.0);
        double w_del = 0.0;
        for (int dp = -params.max_drift; dp <= params.max_drift; ++dp) {
            if (!lat.drift_ok(j - 1, dp)) continue;
            const double ap = a.rows[j - 1][lat.idx(dp)];
            if (ap == 0.0) continue;
            const std::size_t r0 =
                static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
            for (int g = 0; g <= params.max_insert_run; ++g) {
                const int d = dp + g - 1;
                if (!lat.drift_ok(j, d)) continue;
                const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                if (r1 > lat.m) break;
                const double beta = b.rows[j][lat.idx(d)];
                if (beta == 0.0) continue;
                w_del += ap * lat.ins_pow[static_cast<std::size_t>(g)] * params.p_d * beta;
                if (g >= 1) {
                    const double base = ap * lat.ins_pow[static_cast<std::size_t>(g - 1)] *
                                        params.p_t() * beta;
                    const std::uint8_t r = rx[r1 - 1];
                    for (unsigned s = 0; s < m_alpha; ++s)
                        w[s] += base * lat.emit(r, static_cast<std::uint8_t>(s));
                }
            }
        }
        double norm = 0.0;
        for (unsigned s = 0; s < m_alpha; ++s) {
            const double v = priors(j - 1, s) * (w[s] + w_del);
            post(j - 1, s) = v;
            norm += v;
        }
        if (norm > 0.0) {
            for (unsigned s = 0; s < m_alpha; ++s) post(j - 1, s) /= norm;
        } else {
            for (unsigned s = 0; s < m_alpha; ++s) post(j - 1, s) = priors(j - 1, s);
        }
    }
    return post;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

Bits random_symbols(std::size_t len, unsigned alphabet, Rng& rng) {
    Bits out(len);
    for (auto& s : out) s = static_cast<std::uint8_t>(rng.uniform_below(alphabet));
    return out;
}

Matrix random_priors(std::size_t rows, unsigned alphabet, Rng& rng) {
    Matrix m(rows, alphabet);
    for (std::size_t j = 0; j < rows; ++j) {
        double sum = 0.0;
        for (unsigned s = 0; s < alphabet; ++s) {
            m(j, s) = 0.05 + rng.uniform();
            sum += m(j, s);
        }
        for (unsigned s = 0; s < alphabet; ++s) m(j, s) /= sum;
    }
    return m;
}

// ---------------------------------------------------------------------------
// Bit-identity against the seed implementation
// ---------------------------------------------------------------------------

TEST(LatticeEngine, ExactModeBitIdenticalToLegacyLikelihood) {
    Rng rng(20250805);
    for (const double pd : {0.0, 0.02, 0.1}) {
        for (const double pi : {0.0, 0.03, 0.08}) {
            DriftParams p{pd, pi, 0.02, 2, 12, 6};
            const DriftHmm hmm(p);
            for (int rep = 0; rep < 4; ++rep) {
                const Bits tx = random_symbols(48, p.alphabet, rng);
                const Bits rx = ccap::info::simulate_drift_channel(tx, p, rng);
                const double legacy = legacy_log2_likelihood(p, tx, rx);
                const double fresh = hmm.log2_likelihood(tx, rx);
                // EXPECT_EQ on doubles is exact binary equality — that is
                // the contract, not an approximation.
                EXPECT_EQ(legacy, fresh)
                    << "pd=" << pd << " pi=" << pi << " rep=" << rep;
            }
        }
    }
}

TEST(LatticeEngine, ExactModeBitIdenticalToLegacyPosteriors) {
    Rng rng(424242);
    DriftParams p{0.06, 0.04, 0.03, 4, 10, 6};
    const DriftHmm hmm(p);
    for (int rep = 0; rep < 3; ++rep) {
        const Bits tx = random_symbols(32, p.alphabet, rng);
        const Bits rx = ccap::info::simulate_drift_channel(tx, p, rng);
        const Matrix priors = random_priors(tx.size(), p.alphabet, rng);

        double legacy_ev = 0.0, fresh_ev = 0.0;
        const Matrix legacy = legacy_posteriors(p, priors, rx, &legacy_ev);
        const Matrix fresh = hmm.posteriors(priors, rx, &fresh_ev);

        EXPECT_EQ(legacy_ev, fresh_ev);
        ASSERT_EQ(legacy.rows(), fresh.rows());
        ASSERT_EQ(legacy.cols(), fresh.cols());
        for (std::size_t j = 0; j < legacy.rows(); ++j)
            for (std::size_t s = 0; s < legacy.cols(); ++s)
                EXPECT_EQ(legacy(j, s), fresh(j, s)) << "j=" << j << " s=" << s;
    }
}

TEST(LatticeEngine, DeadLatticeStaysDeadAndBitIdentical) {
    // Clean channel + mismatched received: unreachable within truncations.
    DriftParams p{0.0, 0.0, 0.0, 2, 8, 4};
    const DriftHmm hmm(p);
    const Bits tx = {0, 1, 1, 0};
    const Bits rx = {0, 0, 1, 0};
    EXPECT_EQ(legacy_log2_likelihood(p, tx, rx), hmm.log2_likelihood(tx, rx));
    EXPECT_TRUE(std::isinf(hmm.log2_likelihood(tx, rx)));

    // Posteriors on a dead lattice fall back to the priors, as in the seed.
    Rng rng(7);
    const Matrix priors = random_priors(tx.size(), p.alphabet, rng);
    double legacy_ev = 0.0, fresh_ev = 0.0;
    const Matrix legacy = legacy_posteriors(p, priors, rx, &legacy_ev);
    const Matrix fresh = hmm.posteriors(priors, rx, &fresh_ev);
    EXPECT_EQ(legacy_ev, fresh_ev);
    for (std::size_t j = 0; j < legacy.rows(); ++j)
        for (std::size_t s = 0; s < legacy.cols(); ++s)
            EXPECT_EQ(legacy(j, s), fresh(j, s));
}

// ---------------------------------------------------------------------------
// The forward band is the reachable window, not the valid window
// ---------------------------------------------------------------------------

TEST(LatticeEngine, ExactForwardBandIsReachableWindow) {
    // Row j of the forward pass sweeps
    //   [max(-D, -j), min(D, m - j, j * (run - 1))]:
    // the valid window cut to the drifts an insert run of at most `run`
    // symbols per row can reach from drift 0. The shapes cover early rows
    // narrower than the valid window (D = 48, run = 10: row 1 is [-1, 9],
    // the valid window [-1, 48]), m < n, and n < D / (run - 1), where no
    // row reaches the clamp.
    struct Shape {
        int max_drift, run;
        std::size_t n, m;
    };
    Rng rng(1107);
    for (const Shape sh : {Shape{48, 10, 64, 70}, Shape{16, 4, 40, 30}, Shape{48, 10, 4, 40},
                           Shape{32, 3, 20, 2}, Shape{8, 2, 24, 24}}) {
        const DriftParams p{0.1, 0.1, 0.02, 2, sh.max_drift, sh.run};
        const ccap::info::DriftTables tables(p);
        const Bits tx = random_symbols(sh.n, p.alphabet, rng);
        const Bits rx = random_symbols(sh.m, p.alphabet, rng);
        LatticeWorkspace ws;
        ccap::info::LatticeEngine eng(p, tables, rx, sh.n, ws);
        eng.forward([&](std::size_t j, std::uint8_t r) { return eng.emit(r, tx[j]); });
        ASSERT_TRUE(std::isfinite(eng.evidence()))
            << "D=" << sh.max_drift << " run=" << sh.run << " n=" << sh.n << " m=" << sh.m;
        for (std::size_t j = 0; j <= sh.n; ++j) {
            const long long jj = static_cast<long long>(j);
            const long long lo = std::max<long long>(-sh.max_drift, -jj);
            const long long hi =
                std::min({static_cast<long long>(sh.max_drift),
                          static_cast<long long>(sh.m) - jj, jj * (sh.run - 1)});
            EXPECT_EQ(eng.band_lo(j), lo) << "j=" << j << " D=" << sh.max_drift;
            EXPECT_EQ(eng.band_hi(j), hi) << "j=" << j << " D=" << sh.max_drift;
        }
    }
}

// ---------------------------------------------------------------------------
// Workspace reuse: one arena across heterogeneous calls, bit-identical
// ---------------------------------------------------------------------------

TEST(LatticeEngine, WorkspaceReuseIsBitIdentical) {
    Rng rng(8086);
    DriftParams p{0.05, 0.04, 0.02, 2, 12, 6};
    const DriftHmm hmm(p);
    const MarkovSource source = MarkovSource::binary_repeat(0.7);

    // Two different problem sizes so the shared workspace is exercised both
    // growing and shrinking between calls (stale high-water cells must never
    // leak into a smaller problem).
    const Bits tx_a = random_symbols(40, p.alphabet, rng);
    const Bits rx_a = ccap::info::simulate_drift_channel(tx_a, p, rng);
    const Bits tx_b = random_symbols(24, p.alphabet, rng);
    const Bits rx_b = ccap::info::simulate_drift_channel(tx_b, p, rng);
    const Matrix priors_a = random_priors(tx_a.size(), p.alphabet, rng);
    const Matrix priors_b = random_priors(tx_b.size(), p.alphabet, rng);
    const std::vector<Bits> candidates = {{0, 0, 0, 0}, {0, 1, 0, 1}, {1, 1, 1, 1}};
    const DriftHmm::CandidateFn cand_fn = [&](std::size_t) {
        return std::span<const Bits>(candidates);
    };

    // Reference: every call on its own fresh workspace.
    const auto fresh = [&] {
        struct Out {
            double lik_a, lik_b, markov_b;
            Matrix post_a{0, 0}, seg_b{0, 0};
        } out{};
        {
            LatticeWorkspace ws;
            out.lik_a = hmm.log2_likelihood(tx_a, rx_a, ws);
        }
        {
            LatticeWorkspace ws;
            out.post_a = hmm.posteriors(priors_a, rx_a, ws);
        }
        {
            LatticeWorkspace ws;
            out.lik_b = hmm.log2_likelihood(tx_b, rx_b, ws);
        }
        {
            LatticeWorkspace ws;
            out.seg_b = hmm.segment_likelihoods(priors_b, rx_b, 4, candidates.size(),
                                                cand_fn, ws);
        }
        {
            LatticeWorkspace ws;
            out.markov_b = hmm.log2_markov_marginal(source, tx_b.size(), rx_b, ws);
        }
        return out;
    }();

    // Same sequence of calls through ONE shared workspace, twice over.
    LatticeWorkspace shared;
    for (int round = 0; round < 2; ++round) {
        EXPECT_EQ(fresh.lik_a, hmm.log2_likelihood(tx_a, rx_a, shared)) << round;
        const Matrix post_a = hmm.posteriors(priors_a, rx_a, shared);
        for (std::size_t j = 0; j < post_a.rows(); ++j)
            for (std::size_t s = 0; s < post_a.cols(); ++s)
                EXPECT_EQ(fresh.post_a(j, s), post_a(j, s));
        EXPECT_EQ(fresh.lik_b, hmm.log2_likelihood(tx_b, rx_b, shared)) << round;
        const Matrix seg_b =
            hmm.segment_likelihoods(priors_b, rx_b, 4, candidates.size(), cand_fn, shared);
        for (std::size_t t = 0; t < seg_b.rows(); ++t)
            for (std::size_t c = 0; c < seg_b.cols(); ++c)
                EXPECT_EQ(fresh.seg_b(t, c), seg_b(t, c));
        EXPECT_EQ(fresh.markov_b, hmm.log2_markov_marginal(source, tx_b.size(), rx_b, shared))
            << round;
    }
}

}  // namespace
