// Lockstep-vs-scalar contract of the batched structure-of-arrays lattice
// engine (batch_lattice.hpp): every lane of every batched operation is
// bit-identical (EXPECT_EQ, not NEAR) to the scalar LatticeEngine run on
// that lane alone, across ragged batch sizes, dead lanes and workspace
// reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Matrix;
using ccap::util::Rng;

using SymbolSpan = DriftHmm::SymbolSpan;

struct Lanes {
    std::vector<std::vector<std::uint8_t>> tx;
    std::vector<std::vector<std::uint8_t>> rx;

    [[nodiscard]] std::vector<SymbolSpan> tx_spans() const { return spans(tx); }
    [[nodiscard]] std::vector<SymbolSpan> rx_spans() const { return spans(rx); }

private:
    static std::vector<SymbolSpan> spans(const std::vector<std::vector<std::uint8_t>>& v) {
        std::vector<SymbolSpan> out;
        out.reserve(v.size());
        for (const auto& s : v) out.emplace_back(s);
        return out;
    }
};

/// Ragged batch: lane lengths come from real channel draws, plus (for
/// batches of 3+) one empty-received lane and one lane whose received
/// sequence is truncated far below n - max_drift, so its lattice dies
/// mid-pass and the dead-lane bookkeeping is exercised.
Lanes make_lanes(const DriftParams& params, std::size_t n, std::size_t batch,
                 std::uint64_t seed) {
    Lanes lanes;
    Rng rng(seed);
    for (std::size_t b = 0; b < batch; ++b) {
        std::vector<std::uint8_t> tx(n);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(params.alphabet));
        std::vector<std::uint8_t> rx = simulate_drift_channel(tx, params, rng);
        if (batch >= 3 && b == 1) rx.clear();
        if (batch >= 3 && b == 2) {
            rx.resize(std::min<std::size_t>(rx.size(), 1));  // << n - max_drift: lattice dies
        }
        lanes.tx.push_back(std::move(tx));
        lanes.rx.push_back(std::move(rx));
    }
    return lanes;
}

Matrix random_priors(std::size_t n, unsigned alphabet, Rng& rng) {
    Matrix priors(n, alphabet);
    for (std::size_t j = 0; j < n; ++j) {
        double sum = 0.0;
        for (unsigned s = 0; s < alphabet; ++s) {
            priors(j, s) = 0.05 + rng.uniform();
            sum += priors(j, s);
        }
        for (unsigned s = 0; s < alphabet; ++s) priors(j, s) /= sum;
    }
    return priors;
}

const DriftParams kParams{0.12, 0.06, 0.03, 2, 10, 6};
constexpr std::size_t kBatchSizes[] = {1, 3, 8, 13};  // incl. non-power-of-two

std::vector<DriftParams> heterogeneous_lane_params(std::size_t batch) {
    // Varying (p_d, p_i, p_s) over a shared lattice shape — the grid-tile
    // workload of the CRN sweep engine.
    std::vector<DriftParams> ps;
    for (std::size_t b = 0; b < batch; ++b) {
        DriftParams p = kParams;
        p.p_d = 0.02 + 0.05 * static_cast<double>(b % 5);
        p.p_i = 0.01 + 0.02 * static_cast<double>(b % 3);
        p.p_s = (b % 2) ? 0.03 : 0.0;
        ps.push_back(p);
    }
    return ps;
}

TEST(BatchLattice, LikelihoodBitIdenticalToScalarPerLane) {
    const DriftHmm hmm(kParams);
    const std::size_t n = 40;
    for (std::size_t batch : kBatchSizes) {
        const Lanes lanes = make_lanes(kParams, n, batch, 0x1234 + batch);
        LatticeWorkspace batch_ws, scalar_ws;
        const std::vector<LaneEvidence> got =
            hmm.log2_likelihood_batch(lanes.tx_spans(), lanes.rx_spans(), batch_ws);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t b = 0; b < batch; ++b) {
            const double want =
                hmm.log2_likelihood(lanes.tx[b], lanes.rx[b], scalar_ws);
            EXPECT_EQ(got[b].log2_evidence, want) << "lane " << b << " B=" << batch;
        }
    }
}

// Alphabets wider than binary take the generic emission-gather path of
// TxEmitPlane / PriorEmitPlane (batch_lattice.cpp) instead of the
// branchless binary selects; pin its identity separately.
TEST(BatchLattice, QuaternaryAlphabetBitIdenticalToScalarPerLane) {
    DriftParams params = kParams;
    params.alphabet = 4;
    const DriftHmm hmm(params);
    const std::size_t n = 32;
    Rng prior_rng(11);
    const Matrix priors = random_priors(n, params.alphabet, prior_rng);
    for (std::size_t batch : {std::size_t{3}, std::size_t{8}}) {
        const Lanes lanes = make_lanes(params, n, batch, 0x4444 + batch);
        LatticeWorkspace batch_ws, scalar_ws;
        const std::vector<LaneEvidence> got =
            hmm.log2_likelihood_batch(lanes.tx_spans(), lanes.rx_spans(), batch_ws);
        const std::vector<LaneEvidence> marg =
            hmm.log2_prior_marginal_batch(priors, lanes.rx_spans(), batch_ws);
        for (std::size_t b = 0; b < batch; ++b) {
            const double want =
                hmm.log2_likelihood(lanes.tx[b], lanes.rx[b], scalar_ws);
            EXPECT_EQ(got[b].log2_evidence, want) << "lane " << b;
            const double want_m =
                hmm.log2_prior_marginal(priors, lanes.rx[b], scalar_ws);
            EXPECT_EQ(marg[b].log2_evidence, want_m) << "lane " << b;
        }
    }
}

TEST(BatchLattice, PriorMarginalBitIdenticalToScalarPerLane) {
    const DriftHmm hmm(kParams);
    const std::size_t n = 36;
    Rng prior_rng(77);
    const Matrix priors = random_priors(n, kParams.alphabet, prior_rng);
    for (std::size_t batch : kBatchSizes) {
        const Lanes lanes = make_lanes(kParams, n, batch, 0x9876 + batch);
        LatticeWorkspace batch_ws, scalar_ws;
        const std::vector<LaneEvidence> got =
            hmm.log2_prior_marginal_batch(priors, lanes.rx_spans(), batch_ws);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t b = 0; b < batch; ++b) {
            // The forward-only scalar marginal is itself defined as
            // bit-identical to the evidence posteriors() reports; check the
            // batch lane against both.
            const double want =
                hmm.log2_prior_marginal(priors, lanes.rx[b], scalar_ws);
            EXPECT_EQ(got[b].log2_evidence, want) << "lane " << b << " B=" << batch;
            double via_posteriors = 0.0;
            (void)hmm.posteriors(priors, lanes.rx[b], scalar_ws, &via_posteriors);
            EXPECT_EQ(got[b].log2_evidence, via_posteriors) << "lane " << b;
        }
    }
}

// The length memo of the iid Monte-Carlo sampler (deletion_bounds.cpp,
// docs/THEORY.md section 17) rests on this: under uniform binary priors
// both received symbols get the same prior emission factor, so the exact
// marginal evidence of a received sequence depends on its length alone —
// bit for bit, on the scalar engine and on every batched lane.
TEST(BatchLattice, UniformPriorMarginalDependsOnlyOnLength) {
    const std::size_t n = 40;
    const Matrix uniform(n, 2, 0.5);
    const DriftParams configs[] = {
        {0.12, 0.06, 0.03, 2, 10, 6},
        {0.3, 0.0, 0.0, 2, 12, 6},
        {0.0, 0.2, 0.1, 2, 12, 6},
        {0.25, 0.25, 0.0, 2, 16, 8},
    };
    constexpr std::size_t kPerLength = 6;
    Rng rng(0x1E46);
    for (const DriftParams& params : configs) {
        const DriftHmm hmm(params);
        for (std::size_t m : {std::size_t{0}, n - 9, n - 1, n, n + 3, n + 10, 2 * n + 5}) {
            std::vector<std::vector<std::uint8_t>> rx(kPerLength, std::vector<std::uint8_t>(m));
            for (auto& seq : rx)
                for (auto& s : seq) s = static_cast<std::uint8_t>(rng.uniform_below(2));
            std::vector<SymbolSpan> spans(rx.begin(), rx.end());
            LatticeWorkspace batch_ws, scalar_ws;
            const std::vector<LaneEvidence> batched =
                hmm.log2_prior_marginal_batch(uniform, spans, batch_ws);
            const double want = hmm.log2_prior_marginal(uniform, rx[0], scalar_ws);
            for (std::size_t k = 0; k < kPerLength; ++k) {
                const double scalar =
                    hmm.log2_prior_marginal(uniform, rx[k], scalar_ws);
                EXPECT_EQ(scalar, want)
                    << "m=" << m << " sequence " << k << " p_d=" << params.p_d;
                EXPECT_EQ(batched[k].log2_evidence, want)
                    << "m=" << m << " lane " << k << " p_d=" << params.p_d;
            }
        }
    }
}

// Deletion-only channel, iid uniform binary inputs: |Y| ~ Binomial(n,
// 1 - p_d) and all 2^m sequences of one length are equally likely, so
//   log2 P(y) = log2 C(n, m) + m log2(1 - p_d) + (n - m) log2 p_d - m.
// At m >= n - max_drift the drift clamp truncates nothing, and the
// lattice must reproduce the closed form.
TEST(BatchLattice, DeletionOnlyMarginalMatchesBinomialOracle) {
    const std::size_t n = 128;
    const Matrix uniform(n, 2, 0.5);
    for (double p_d : {0.05, 0.2, 0.45}) {
        const DriftParams params{p_d, 0.0, 0.0, 2, 48, 10};
        const DriftHmm hmm(params);
        const auto max_drift = static_cast<std::size_t>(params.max_drift);
        std::vector<std::vector<std::uint8_t>> rx;
        Rng rng(0xB10 + static_cast<std::uint64_t>(p_d * 100));
        for (std::size_t m = n - max_drift; m <= n; m += 8) {
            std::vector<std::uint8_t> seq(m);
            for (auto& s : seq) s = static_cast<std::uint8_t>(rng.uniform_below(2));
            rx.push_back(std::move(seq));
        }
        std::vector<SymbolSpan> spans(rx.begin(), rx.end());
        LatticeWorkspace batch_ws, scalar_ws;
        const std::vector<LaneEvidence> batched =
            hmm.log2_prior_marginal_batch(uniform, spans, batch_ws);
        for (std::size_t k = 0; k < rx.size(); ++k) {
            const auto m = static_cast<double>(rx[k].size());
            const double nn = static_cast<double>(n);
            const double log2_binom =
                (std::lgamma(nn + 1.0) - std::lgamma(m + 1.0) - std::lgamma(nn - m + 1.0)) /
                std::log(2.0);
            const double oracle =
                log2_binom + m * std::log2(1.0 - p_d) + (nn - m) * std::log2(p_d) - m;
            const double scalar = hmm.log2_prior_marginal(uniform, rx[k], scalar_ws);
            EXPECT_NEAR(scalar, oracle, 1e-9 * std::abs(oracle)) << "m=" << m << " p_d=" << p_d;
            EXPECT_NEAR(batched[k].log2_evidence, oracle, 1e-9 * std::abs(oracle))
                << "m=" << m << " p_d=" << p_d;
        }
    }
}

/// The pre-batching per-candidate inner loop of segment_likelihoods,
/// kept verbatim as the bit-identity reference for the candidate-batched
/// production path (drift_hmm.cpp).
Matrix reference_segment_likelihoods(const DriftHmm& hmm, const Matrix& priors,
                                     std::span<const std::uint8_t> received, std::size_t seg_len,
                                     const std::vector<std::vector<std::uint8_t>>& candidates,
                                     LatticeWorkspace& ws) {
    const DriftParams& params = hmm.params();
    const DriftTables& tables = hmm.tables();
    const std::size_t n = priors.rows();
    LatticeEngine eng(params, tables, received, n, ws);
    const auto emit_p = [&](std::size_t j, std::uint8_t r) {
        return eng.emit_prior(r, priors.row(j));
    };
    eng.forward(emit_p);
    eng.backward(emit_p);

    const std::size_t num_segments = n / seg_len;
    Matrix out(num_segments, candidates.size());
    const std::size_t width = eng.width();
    const auto& ins_pow = tables.ins_pow;
    const int run = params.max_insert_run;

    std::span<double> cur = ws.scratch(width);
    std::span<double> next = ws.scratch2(width);
    for (std::size_t t = 0; t < num_segments; ++t) {
        const std::size_t j0 = t * seg_len;
        double row_norm = 0.0;
        for (std::size_t ci = 0; ci < candidates.size(); ++ci) {
            std::fill(cur.begin(), cur.end(), 0.0);
            int wlo = eng.band_lo(j0), whi = eng.band_hi(j0);
            const double* arow = eng.alpha_row(j0);
            for (int d = wlo; d <= whi; ++d) cur[eng.idx(d)] = arow[eng.idx(d)];
            for (std::size_t l = 0; l < seg_len && wlo <= whi; ++l) {
                const std::size_t j = j0 + l + 1;
                const std::uint8_t sym = candidates[ci][l];
                int clo = 0, chi = -1;
                if (!eng.valid_window(j, clo, chi)) {
                    wlo = 1;
                    whi = 0;
                    break;
                }
                clo = std::max(clo, wlo - 1);
                chi = std::min(chi, whi + run - 1);
                if (clo > chi) {
                    wlo = 1;
                    whi = 0;
                    break;
                }
                for (int d = clo; d <= chi; ++d) next[eng.idx(d)] = 0.0;
                for (int dp = wlo; dp <= whi; ++dp) {
                    const double ap = cur[eng.idx(dp)];
                    if (ap == 0.0) continue;
                    const std::size_t r0 =
                        static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
                    const int glo = std::max(0, clo - dp + 1);
                    const int ghi = std::min(run, chi - dp + 1);
                    for (int g = glo; g <= ghi; ++g) {
                        const int d = dp + g - 1;
                        const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                        double w = ins_pow[static_cast<std::size_t>(g)] * params.p_d;
                        if (g >= 1)
                            w += ins_pow[static_cast<std::size_t>(g - 1)] * params.p_t() *
                                 eng.emit(received[r1 - 1], sym);
                        next[eng.idx(d)] += ap * w;
                    }
                }
                std::swap(cur, next);
                wlo = clo;
                whi = chi;
            }
            double like = 0.0;
            int blo = 0, bhi = -1;
            if (eng.valid_window(j0 + seg_len, blo, bhi)) {
                const double* brow = eng.beta_row(j0 + seg_len);
                const int lo2 = std::max(wlo, blo), hi2 = std::min(whi, bhi);
                for (int d = lo2; d <= hi2; ++d) like += cur[eng.idx(d)] * brow[eng.idx(d)];
            }
            out(t, ci) = like;
            row_norm += like;
        }
        if (row_norm > 0.0) {
            for (std::size_t ci = 0; ci < candidates.size(); ++ci) out(t, ci) /= row_norm;
        } else {
            for (std::size_t ci = 0; ci < candidates.size(); ++ci)
                out(t, ci) = 1.0 / static_cast<double>(candidates.size());
        }
    }
    return out;
}

TEST(BatchLattice, SegmentLikelihoodsBitIdenticalToPerCandidateReference) {
    const DriftHmm hmm(kParams);
    const std::size_t seg_len = 4;
    const std::size_t n = 32;
    // All 2^4 binary candidates — the watermark inner decoder's shape.
    std::vector<std::vector<std::uint8_t>> candidates;
    for (unsigned v = 0; v < 16; ++v) {
        std::vector<std::uint8_t> c(seg_len);
        for (std::size_t l = 0; l < seg_len; ++l) c[l] = (v >> l) & 1U;
        candidates.push_back(std::move(c));
    }
    Rng rng(2025);
    const Matrix priors = random_priors(n, kParams.alphabet, rng);
    std::vector<std::uint8_t> tx(n);
    for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(kParams.alphabet));
    for (std::size_t m_case = 0; m_case < 3; ++m_case) {
        std::vector<std::uint8_t> rx = simulate_drift_channel(tx, kParams, rng);
        if (m_case == 1) rx.clear();           // all-deleted: uniform fallback rows
        if (m_case == 2) rx.resize(1);         // dead lattice
        LatticeWorkspace got_ws, want_ws;
        const Matrix got = hmm.segment_likelihoods(priors, rx, seg_len, candidates.size(),
                                                   [&](std::size_t) {
                                                       return std::span<const std::vector<
                                                           std::uint8_t>>(candidates);
                                                   },
                                                   got_ws);
        const Matrix want =
            reference_segment_likelihoods(hmm, priors, rx, seg_len, candidates, want_ws);
        ASSERT_EQ(got.rows(), want.rows());
        ASSERT_EQ(got.cols(), want.cols());
        for (std::size_t t = 0; t < want.rows(); ++t)
            for (std::size_t ci = 0; ci < want.cols(); ++ci)
                EXPECT_EQ(got(t, ci), want(t, ci))
                    << "case " << m_case << " seg " << t << " cand " << ci;
    }
}

TEST(BatchLattice, WorkspaceReuseIsBitIdentical) {
    // The arenas never shrink and never zero, so a workspace warmed on a
    // larger/other-shaped batch must not leak state into later calls.
    const DriftHmm hmm(kParams);
    const Lanes small = make_lanes(kParams, 24, 3, 0xAAAA);
    const Lanes large = make_lanes(kParams, 48, 13, 0xBBBB);

    LatticeWorkspace fresh;
    const std::vector<LaneEvidence> want =
        hmm.log2_likelihood_batch(small.tx_spans(), small.rx_spans(), fresh);

    // Dirty every arena in both engine modes: the shared-table passes and
    // the per-lane-parameter pass (which also grabs the weight planes).
    LatticeWorkspace reused;
    Rng prior_rng(5);
    (void)hmm.log2_likelihood_batch(large.tx_spans(), large.rx_spans(), reused);
    (void)hmm.log2_prior_marginal_batch(random_priors(48, kParams.alphabet, prior_rng),
                                        large.rx_spans(), reused);
    (void)log2_likelihood_batch_per_lane(heterogeneous_lane_params(large.tx.size()),
                                         large.tx_spans(), large.rx_spans(), reused);
    const std::vector<LaneEvidence> got =
        hmm.log2_likelihood_batch(small.tx_spans(), small.rx_spans(), reused);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t b = 0; b < want.size(); ++b)
        EXPECT_EQ(got[b].log2_evidence, want[b].log2_evidence) << "lane " << b;
}

// ---------------------------------------------------------------------------
// Per-lane-parameter mode (log2_*_batch_per_lane): lanes carry their own
// transition-weight and emission planes; everything else — the union
// window, the dead-lane bookkeeping, the bit-identity contract — is
// unchanged.
// ---------------------------------------------------------------------------

Lanes make_hetero_lanes(std::span<const DriftParams> ps, std::size_t n,
                        std::uint64_t seed) {
    Lanes lanes;
    Rng rng(seed);
    for (const DriftParams& p : ps) {
        std::vector<std::uint8_t> tx(n);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(p.alphabet));
        lanes.rx.push_back(simulate_drift_channel(tx, p, rng));
        lanes.tx.push_back(std::move(tx));
    }
    return lanes;
}

TEST(BatchLattice, PerLaneParamsBitIdenticalToScalarPerLane) {
    const std::size_t n = 36;
    for (std::size_t batch : kBatchSizes) {
        const std::vector<DriftParams> ps = heterogeneous_lane_params(batch);
        Lanes lanes = make_hetero_lanes(ps, n, 0xE1E1 + batch);
        if (batch >= 3) {
            lanes.rx[1].clear();      // all-deleted lane
            lanes.rx[2].resize(1);    // dead lattice mid-pass
        }
        LatticeWorkspace batch_ws, scalar_ws;
        const std::vector<LaneEvidence> got = log2_likelihood_batch_per_lane(
            ps, lanes.tx_spans(), lanes.rx_spans(), batch_ws);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t b = 0; b < batch; ++b) {
            const DriftHmm hmm(ps[b]);
            const double want =
                hmm.log2_likelihood(lanes.tx[b], lanes.rx[b], scalar_ws);
            EXPECT_EQ(got[b].log2_evidence, want)
                << "lane " << b << " B=" << batch;
        }
    }
}

TEST(BatchLattice, PerLanePriorMarginalBitIdenticalToScalarPerLane) {
    const std::size_t n = 32;
    Rng prior_rng(91);
    const Matrix priors = random_priors(n, kParams.alphabet, prior_rng);
    for (std::size_t batch : kBatchSizes) {
        const std::vector<DriftParams> ps = heterogeneous_lane_params(batch);
        const Lanes lanes = make_hetero_lanes(ps, n, 0xF2F2 + batch);
        LatticeWorkspace batch_ws, scalar_ws;
        const std::vector<LaneEvidence> got = log2_prior_marginal_batch_per_lane(
            ps, priors, lanes.rx_spans(), batch_ws);
        ASSERT_EQ(got.size(), batch);
        for (std::size_t b = 0; b < batch; ++b) {
            const DriftHmm hmm(ps[b]);
            const double want =
                hmm.log2_prior_marginal(priors, lanes.rx[b], scalar_ws);
            EXPECT_EQ(got[b].log2_evidence, want)
                << "lane " << b << " B=" << batch;
        }
    }
}

TEST(BatchLattice, PerLaneQuaternaryAlphabetBitIdenticalToScalarPerLane) {
    // The generic (non-binary) emission-gather path of the per-lane plane
    // providers, pinned separately like the shared-table batch.
    DriftParams base = kParams;
    base.alphabet = 4;
    const std::size_t n = 28;
    Rng prior_rng(17);
    const Matrix priors = random_priors(n, base.alphabet, prior_rng);
    std::vector<DriftParams> ps;
    for (std::size_t b = 0; b < 5; ++b) {
        DriftParams p = base;
        p.p_d = 0.05 + 0.06 * static_cast<double>(b);
        ps.push_back(p);
    }
    const Lanes lanes = make_hetero_lanes(ps, n, 0xABCD);
    LatticeWorkspace batch_ws, scalar_ws;
    const std::vector<LaneEvidence> like = log2_likelihood_batch_per_lane(
        ps, lanes.tx_spans(), lanes.rx_spans(), batch_ws);
    const std::vector<LaneEvidence> marg = log2_prior_marginal_batch_per_lane(
        ps, priors, lanes.rx_spans(), batch_ws);
    for (std::size_t b = 0; b < ps.size(); ++b) {
        const DriftHmm hmm(ps[b]);
        EXPECT_EQ(like[b].log2_evidence,
                  hmm.log2_likelihood(lanes.tx[b], lanes.rx[b], scalar_ws))
            << "lane " << b;
        EXPECT_EQ(marg[b].log2_evidence, hmm.log2_prior_marginal(priors, lanes.rx[b], scalar_ws))
            << "lane " << b;
    }
}

TEST(BatchLattice, PerLaneUniformParamsMatchSharedTableBatch) {
    // Degenerate case: every lane carries the same parameters. The per-lane
    // planes then hold the shared DriftTables values bit for bit, so the
    // two batch paths must agree exactly.
    const DriftHmm hmm(kParams);
    const std::size_t n = 40;
    for (std::size_t batch : {std::size_t{3}, std::size_t{8}}) {
        const Lanes lanes = make_lanes(kParams, n, batch, 0x5151 + batch);
        const std::vector<DriftParams> ps(batch, kParams);
        LatticeWorkspace pl_ws, sh_ws;
        const std::vector<LaneEvidence> got = log2_likelihood_batch_per_lane(
            ps, lanes.tx_spans(), lanes.rx_spans(), pl_ws);
        const std::vector<LaneEvidence> want =
            hmm.log2_likelihood_batch(lanes.tx_spans(), lanes.rx_spans(), sh_ws);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < batch; ++b)
            EXPECT_EQ(got[b].log2_evidence, want[b].log2_evidence) << "lane " << b;
    }
}

TEST(BatchLattice, PerLaneRejectsMismatchedStructureAndCounts) {
    const std::size_t n = 16;
    std::vector<DriftParams> ps = heterogeneous_lane_params(3);
    const Lanes lanes = make_hetero_lanes(ps, n, 0x1DEA);
    LatticeWorkspace ws;
    {
        std::vector<DriftParams> bad = ps;
        bad[1].max_drift = kParams.max_drift + 2;
        EXPECT_THROW((void)log2_likelihood_batch_per_lane(bad, lanes.tx_spans(),
                                                          lanes.rx_spans(), ws),
                     std::invalid_argument);
    }
    {
        const std::vector<DriftParams> two(ps.begin(), ps.begin() + 2);
        EXPECT_THROW((void)log2_likelihood_batch_per_lane(two, lanes.tx_spans(),
                                                          lanes.rx_spans(), ws),
                     std::invalid_argument);
    }
}

TEST(BatchLattice, LockstepRequiresEqualTransmittedLengths) {
    const DriftHmm hmm(kParams);
    const std::vector<std::uint8_t> a(8, 0), b(9, 1), rx(8, 0);
    const std::vector<SymbolSpan> tx{SymbolSpan(a), SymbolSpan(b)};
    const std::vector<SymbolSpan> rxs{SymbolSpan(rx), SymbolSpan(rx)};
    LatticeWorkspace ws;
    EXPECT_THROW((void)hmm.log2_likelihood_batch(tx, rxs, ws), std::invalid_argument);
}

}  // namespace
