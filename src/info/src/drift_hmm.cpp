#include "ccap/info/drift_hmm.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include "ccap/info/lattice_engine.hpp"
#include "ccap/info/lattice_simd.hpp"

namespace ccap::info {

void MarkovSource::validate(unsigned alphabet) const {
    if (initial.size() != alphabet || transition.rows() != alphabet ||
        transition.cols() != alphabet)
        throw std::invalid_argument("MarkovSource: dimensions do not match alphabet");
    double sum = 0.0;
    for (double p : initial) {
        // !(p >= 0) also rejects NaN, which no ordinary comparison catches.
        if (!(p >= 0.0) || !std::isfinite(p))
            throw std::domain_error("MarkovSource: initial probability not finite in [0,1]");
        sum += p;
    }
    if (!(std::abs(sum - 1.0) <= 1e-9))
        throw std::domain_error("MarkovSource: initial distribution does not sum to 1");
    for (std::size_t r = 0; r < transition.rows(); ++r)
        for (std::size_t c = 0; c < transition.cols(); ++c)
            if (!(transition(r, c) >= 0.0) || !std::isfinite(transition(r, c)))
                throw std::domain_error(
                    "MarkovSource: transition probability not finite in [0,1]");
    if (!transition.is_row_stochastic(1e-9))
        throw std::domain_error("MarkovSource: transition matrix not row-stochastic");
}

MarkovSource MarkovSource::binary_repeat(double stay) {
    if (stay < 0.0 || stay > 1.0)
        throw std::domain_error("MarkovSource::binary_repeat: stay outside [0,1]");
    MarkovSource s;
    s.initial = {0.5, 0.5};
    s.transition = util::Matrix{{stay, 1.0 - stay}, {1.0 - stay, stay}};
    return s;
}

void DriftParams::validate() const {
    // isfinite first: NaN sails through every < comparison below.
    if (!std::isfinite(p_d) || !std::isfinite(p_i) || !std::isfinite(p_s))
        throw std::domain_error("DriftParams: non-finite probability");
    if (p_d < 0.0 || p_i < 0.0 || p_s < 0.0 || p_s > 1.0)
        throw std::domain_error("DriftParams: negative probability");
    if (p_d + p_i >= 1.0 + 1e-12)
        throw std::domain_error("DriftParams: p_d + p_i must be < 1");
    if (alphabet < 2) throw std::domain_error("DriftParams: alphabet < 2");
    // The lattices hold one symbol per byte.
    if (alphabet > 256) throw std::domain_error("DriftParams: alphabet > 256");
    if (max_drift < 1 || max_insert_run < 1)
        throw std::domain_error("DriftParams: truncation bounds must be >= 1");
}

namespace {

constexpr double kNegInf = -std::numeric_limits<double>::infinity();

void check_symbols(std::span<const std::uint8_t> seq, unsigned alphabet, const char* what) {
    for (std::uint8_t s : seq)
        if (s >= alphabet) throw std::out_of_range(std::string("DriftHmm: ") + what +
                                                   " symbol out of alphabet");
}

}  // namespace

DriftHmm::DriftHmm(DriftParams params) : params_(params) {
    params_.validate();
    tables_ = std::make_shared<const DriftTables>(params_);
}

double DriftHmm::log2_likelihood(std::span<const std::uint8_t> transmitted,
                                 std::span<const std::uint8_t> received) const {
    ScopedWorkspace lease;
    return log2_likelihood(transmitted, received, lease.get());
}

double DriftHmm::log2_likelihood(std::span<const std::uint8_t> transmitted,
                                 std::span<const std::uint8_t> received,
                                 LatticeWorkspace& ws) const {
    check_symbols(transmitted, params_.alphabet, "transmitted");
    check_symbols(received, params_.alphabet, "received");
    LatticeEngine eng(params_, *tables_, received, transmitted.size(), ws);
    eng.forward([&](std::size_t j, std::uint8_t r) { return eng.emit(r, transmitted[j]); });
    return eng.evidence();
}

double DriftHmm::log2_prior_marginal(const util::Matrix& priors,
                                     std::span<const std::uint8_t> received,
                                     LatticeWorkspace& ws) const {
    const std::size_t n = priors.rows();
    const unsigned m_alpha = params_.alphabet;
    if (priors.cols() != m_alpha)
        throw std::invalid_argument("DriftHmm::log2_prior_marginal: priors cols != alphabet");
    if (!priors.is_row_stochastic(1e-6) && n > 0)
        throw std::invalid_argument("DriftHmm::log2_prior_marginal: priors not row-stochastic");
    check_symbols(received, m_alpha, "received");

    // The backward pass never touches the forward rows or scales, so this
    // forward-only evidence is bit-identical to the one posteriors()
    // reports — at half the lattice cost.
    LatticeEngine eng(params_, *tables_, received, n, ws);
    eng.forward(
        [&](std::size_t j, std::uint8_t r) { return eng.emit_prior(r, priors.row(j)); });
    return eng.evidence();
}

util::Matrix DriftHmm::posteriors(const util::Matrix& priors,
                                  std::span<const std::uint8_t> received,
                                  double* log2_evidence) const {
    ScopedWorkspace lease;
    return posteriors(priors, received, lease.get(), log2_evidence);
}

util::Matrix DriftHmm::posteriors(const util::Matrix& priors,
                                  std::span<const std::uint8_t> received,
                                  LatticeWorkspace& ws, double* log2_evidence) const {
    const std::size_t n = priors.rows();
    const unsigned m_alpha = params_.alphabet;
    if (priors.cols() != m_alpha)
        throw std::invalid_argument("DriftHmm::posteriors: priors cols != alphabet");
    if (!priors.is_row_stochastic(1e-6) && n > 0)
        throw std::invalid_argument("DriftHmm::posteriors: priors not row-stochastic");
    check_symbols(received, m_alpha, "received");

    LatticeEngine eng(params_, *tables_, received, n, ws);
    const auto emit_p = [&](std::size_t j, std::uint8_t r) {
        return eng.emit_prior(r, priors.row(j));
    };
    eng.forward(emit_p);
    eng.backward(emit_p);

    if (log2_evidence != nullptr) *log2_evidence = eng.evidence();

    util::Matrix post(n, m_alpha);
    const std::span<double> w = ws.scratch(m_alpha);
    const auto& ins_pow = tables_->ins_pow;
    for (std::size_t j = 1; j <= n; ++j) {
        std::fill(w.begin(), w.end(), 0.0);
        double w_del = 0.0;
        int blo = 0, bhi = -1;
        const bool beta_live = eng.valid_window(j, blo, bhi);
        const double* arow = eng.alpha_row(j - 1);
        const double* brow = eng.beta_row(j);
        for (int dp = eng.band_lo(j - 1); dp <= eng.band_hi(j - 1); ++dp) {
            const double ap = arow[eng.idx(dp)];
            if (ap == 0.0) continue;
            const std::size_t r0 = static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
            for (int g = 0; g <= params_.max_insert_run; ++g) {
                const int d = dp + g - 1;
                if (!beta_live || d < blo || d > bhi) continue;
                const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                const double beta = brow[eng.idx(d)];
                if (beta == 0.0) continue;
                w_del += ap * ins_pow[static_cast<std::size_t>(g)] * params_.p_d * beta;
                if (g >= 1) {
                    const double base = ap * ins_pow[static_cast<std::size_t>(g - 1)] *
                                        params_.p_t() * beta;
                    const std::uint8_t r = received[r1 - 1];
                    for (unsigned s = 0; s < m_alpha; ++s)
                        w[s] += base * eng.emit(r, static_cast<std::uint8_t>(s));
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
            // Unreachable position under the truncations: fall back to prior.
            for (unsigned s = 0; s < m_alpha; ++s) post(j - 1, s) = priors(j - 1, s);
        }
    }
    return post;
}

double DriftHmm::log2_markov_marginal(const MarkovSource& source, std::size_t tx_len,
                                      std::span<const std::uint8_t> received,
                                      LatticeWorkspace& ws) const {
    const unsigned m_alpha = params_.alphabet;
    source.validate(m_alpha);
    check_symbols(received, m_alpha, "received");

    LatticeEngine eng(params_, *tables_, received, tx_len, ws);
    const std::size_t width = eng.width();
    const auto& ins_pow = tables_->ins_pow;
    const int run = params_.max_insert_run;

    // Joint forward state: (drift, value of the just-consumed symbol).
    // Row-major [drift][symbol]; per-slice normalization with a log2 scale.
    std::span<double> cur = ws.scratch(width * m_alpha);
    std::span<double> next = ws.scratch2(width * m_alpha);
    std::span<double> pre = ws.scratch3(width * m_alpha);
    double log2_scale = 0.0;
    // Live drift window of `cur`; starts as the point mass at drift 0.
    int wlo = 0, whi = 0;

    // One joint step into row j. weight_of_prev(dp, s) is the Markov-
    // weighted mass arriving at (previous-drift dp, new-symbol s).
    const auto step_into = [&](std::size_t j, auto&& weight_of_prev) {
        int clo = 0, chi = -1;
        if (!eng.valid_window(j, clo, chi) || wlo > whi) return false;
        clo = std::max(clo, wlo - 1);
        chi = std::min(chi, whi + run - 1);
        if (clo > chi) return false;
        // Pre-aggregate the Markov-weighted mass arriving at each
        // (previous-drift, new-symbol) pair, once per step.
        for (int dp = wlo; dp <= whi; ++dp)
            for (unsigned s = 0; s < m_alpha; ++s)
                pre[eng.idx(dp) * m_alpha + s] = weight_of_prev(dp, s);
        for (int d = clo; d <= chi; ++d)
            for (unsigned s = 0; s < m_alpha; ++s) next[eng.idx(d) * m_alpha + s] = 0.0;
        for (int dp = wlo; dp <= whi; ++dp) {
            const std::size_t r0 = static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
            const int glo = std::max(0, clo - dp + 1);
            const int ghi = std::min(run, chi - dp + 1);
            for (int g = glo; g <= ghi; ++g) {
                const int d = dp + g - 1;
                const std::size_t r1 = r0 + static_cast<std::size_t>(g);
                const double w_del = ins_pow[static_cast<std::size_t>(g)] * params_.p_d;
                for (unsigned s = 0; s < m_alpha; ++s) {
                    double w = w_del;
                    if (g >= 1)
                        w += ins_pow[static_cast<std::size_t>(g - 1)] * params_.p_t() *
                             eng.emit(received[r1 - 1], static_cast<std::uint8_t>(s));
                    if (w == 0.0) continue;
                    const double mass = pre[eng.idx(dp) * m_alpha + s];
                    if (mass > 0.0) next[eng.idx(d) * m_alpha + s] += mass * w;
                }
            }
        }
        double norm = 0.0;
        for (int d = clo; d <= chi; ++d)
            for (unsigned s = 0; s < m_alpha; ++s) norm += next[eng.idx(d) * m_alpha + s];
        if (!(norm > 0.0)) return false;
        for (int d = clo; d <= chi; ++d)
            for (unsigned s = 0; s < m_alpha; ++s) next[eng.idx(d) * m_alpha + s] /= norm;
        log2_scale += std::log2(norm);
        std::swap(cur, next);
        wlo = clo;
        whi = chi;
        return true;
    };

    if (tx_len >= 1) {
        // First symbol: drawn from the initial distribution, drift starts 0.
        const bool ok = step_into(1, [&](int dp, unsigned s) {
            return dp == 0 ? source.initial[s] : 0.0;
        });
        if (!ok) return kNegInf;
    }
    for (std::size_t j = 2; j <= tx_len; ++j) {
        const bool ok = step_into(j, [&](int dp, unsigned s) {
            double mass = 0.0;
            for (unsigned sp = 0; sp < m_alpha; ++sp)
                mass += cur[eng.idx(dp) * m_alpha + sp] * source.transition(sp, s);
            return mass;
        });
        if (!ok) return kNegInf;
    }

    double tail = 0.0;
    if (tx_len == 0) {
        tail = eng.trailing(0);
    } else {
        for (int d = wlo; d <= whi; ++d) {
            for (unsigned s = 0; s < m_alpha; ++s)
                tail += cur[eng.idx(d) * m_alpha + s] * eng.trailing(d);
        }
    }
    if (tail <= 0.0) return kNegInf;
    return log2_scale + std::log2(tail);
}

util::Matrix DriftHmm::segment_likelihoods(const util::Matrix& priors,
                                           std::span<const std::uint8_t> received,
                                           std::size_t seg_len, std::size_t num_candidates,
                                           const CandidateFn& candidates_for,
                                           LatticeWorkspace& ws) const {
    const std::size_t n = priors.rows();
    const unsigned m_alpha = params_.alphabet;
    if (seg_len == 0 || n % seg_len != 0)
        throw std::invalid_argument("segment_likelihoods: n must be a positive multiple of seg_len");
    if (num_candidates == 0)
        throw std::invalid_argument("segment_likelihoods: no candidates");
    if (priors.cols() != m_alpha)
        throw std::invalid_argument("segment_likelihoods: priors cols != alphabet");

    LatticeEngine eng(params_, *tables_, received, n, ws);
    const auto emit_p = [&](std::size_t j, std::uint8_t r) {
        return eng.emit_prior(r, priors.row(j));
    };
    eng.forward(emit_p);
    eng.backward(emit_p);

    const std::size_t num_segments = n / seg_len;
    util::Matrix out(num_segments, num_candidates);
    const std::size_t width = eng.width();
    const auto& ins_pow = tables_->ins_pow;
    const int run = params_.max_insert_run;

    // All candidates of a segment share the same drift-window trajectory
    // (the recurrence is value-independent), so the per-candidate
    // propagation runs as one structure-of-arrays batch with the
    // candidates as lanes: cell (drift d, candidate c) at idx(d) * Cp + c,
    // where Cp pads the candidate count to the SIMD vector width and the
    // lane loops run the dispatched kernels (lattice_simd.hpp) — padding
    // lanes carry exactly 0.0 and are dropped at the closing stage. Per
    // (drift, candidate) the emission is computed once — received index
    // (j-1) + d is source-independent — instead of once per (source,
    // run-length); per-candidate results match the old one-candidate-at-a-
    // time loop bit for bit (the term order per cell is unchanged). This
    // is the watermark inner decoder's hot loop (coding/watermark.cpp).
    const std::size_t C = num_candidates;
    const LaneKernels& kern = C > 1 ? active_lane_kernels() : *lane_kernels_scalar();
    const std::size_t W = kern.vector_doubles;
    const std::size_t Cp = (C + W - 1) / W * W;
    std::span<double> cur = ws.scratch(width * Cp);
    std::span<double> next = ws.scratch2(width * Cp);
    std::span<double> esc = ws.scratch3(width * Cp);
    // Selector pack and pad-finite emissions: pads select symbol 0.
    std::span<std::uint8_t> selc = ws.tx_bytes(Cp);
    std::fill(selc.begin(), selc.end(), 0);
    std::fill(esc.begin(), esc.end(), 0.0);
    for (std::size_t t = 0; t < num_segments; ++t) {
        const std::span<const std::vector<std::uint8_t>> candidates = candidates_for(t);
        if (candidates.size() != num_candidates)
            throw std::invalid_argument("segment_likelihoods: candidate count changed");
        for (const auto& c : candidates) {
            if (c.size() != seg_len)
                throw std::invalid_argument("segment_likelihoods: candidate length != seg_len");
            for (std::uint8_t s : c)
                if (s >= m_alpha) throw std::out_of_range("segment_likelihoods: candidate symbol");
        }
        const std::size_t j0 = t * seg_len;
        // Broadcast the forward slice at j0 to every candidate lane.
        std::fill(cur.begin(), cur.end(), 0.0);
        int wlo = eng.band_lo(j0), whi = eng.band_hi(j0);
        const double* arow = eng.alpha_row(j0);
        for (int d = wlo; d <= whi; ++d) {
            const double a = arow[eng.idx(d)];
            double* base = cur.data() + eng.idx(d) * Cp;
            for (std::size_t ci = 0; ci < C; ++ci) base[ci] = a;
        }
        for (std::size_t l = 0; l < seg_len && wlo <= whi; ++l) {
            const std::size_t j = j0 + l + 1;
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
            std::fill(next.begin() + static_cast<std::ptrdiff_t>(eng.idx(clo) * Cp),
                      next.begin() + static_cast<std::ptrdiff_t>((eng.idx(chi) + 1) * Cp),
                      0.0);
            // Emission plane over (destination drift, candidate). The
            // candidate symbol at offset l is drift-independent, so it is
            // packed once and the binary fill is a dispatched select of the
            // exact table entry (bit-identical to the gather).
            for (std::size_t ci = 0; ci < C; ++ci) selc[ci] = candidates[ci][l];
            for (int d = std::max(clo, wlo); d <= chi; ++d) {
                const std::uint8_t r =
                    received[static_cast<std::size_t>(static_cast<long long>(j - 1) + d)];
                const double* erow =
                    tables_->emit_tab.data() + static_cast<std::size_t>(r) * m_alpha;
                double* ebase = esc.data() + eng.idx(d) * Cp;
                if (m_alpha == 2) {
                    kern.select_const(ebase, selc.data(), erow[0], erow[1], Cp);
                } else {
                    for (std::size_t ci = 0; ci < C; ++ci) ebase[ci] = erow[selc[ci]];
                }
            }
            for (int dp = wlo; dp <= whi; ++dp) {
                const double* ap = cur.data() + eng.idx(dp) * Cp;
                const int glo = std::max(0, clo - dp + 1);
                const int ghi = std::min(run, chi - dp + 1);
                int g = glo;
                if (g == 0 && g <= ghi) {
                    kern.axpy(next.data() + (eng.idx(dp) - 1) * Cp, ap,
                              ins_pow[0] * params_.p_d, Cp);
                    g = 1;
                }
                if (g > ghi) continue;
                // Fused insert-run sweep (same op per cell as the unfused
                // loop; tables_->del_w/tx_w hold exactly ins_pow[g] * p_d and
                // ins_pow[g-1] * p_t(), the weights used here before fusing).
                const std::size_t cell_off =
                    (eng.idx(dp) + static_cast<std::size_t>(g) - 1) * Cp;
                kern.fma_run(next.data() + cell_off, ap, tables_->del_w.data() + g,
                             tables_->tx_w.data() + (g - 1), esc.data() + cell_off,
                             static_cast<std::size_t>(ghi - g + 1), Cp);
            }
            std::swap(cur, next);
            wlo = clo;
            whi = chi;
        }
        // Close every candidate lane with the backward slice (unpadded: the
        // result row is Matrix storage, so the kernels' scalar tails apply).
        for (std::size_t ci = 0; ci < C; ++ci) out(t, ci) = 0.0;
        int blo = 0, bhi = -1;
        if (eng.valid_window(j0 + seg_len, blo, bhi)) {
            const double* brow = eng.beta_row(j0 + seg_len);
            const int lo2 = std::max(wlo, blo), hi2 = std::min(whi, bhi);
            for (int d = lo2; d <= hi2; ++d) {
                kern.axpy(&out(t, 0), cur.data() + eng.idx(d) * Cp, brow[eng.idx(d)], C);
            }
        }
        double row_norm = 0.0;
        for (std::size_t ci = 0; ci < C; ++ci) row_norm += out(t, ci);
        if (row_norm > 0.0) {
            for (std::size_t ci = 0; ci < C; ++ci) out(t, ci) /= row_norm;
        } else {
            for (std::size_t ci = 0; ci < C; ++ci)
                out(t, ci) = 1.0 / static_cast<double>(num_candidates);
        }
    }
    return out;
}

}  // namespace ccap::info
