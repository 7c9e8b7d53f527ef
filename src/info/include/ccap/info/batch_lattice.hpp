// Batched structure-of-arrays lattice kernel for the drift HMM.
//
// Every Monte-Carlo capacity bound reduces to thousands of *independent*
// forward sweeps over the drift lattice: the rate estimators need only
// log-evidences, never posteriors. The scalar LatticeEngine
// (lattice_engine.hpp) walks one sequence at a time, so each inner-loop
// trip pays row bookkeeping, band-edge branches and an emission-table
// gather per cell. BatchLatticeEngine advances B sequences of the same
// transmitted length in lockstep instead, forward only — the backward
// pass and posteriors stay on the scalar engine (marker/watermark
// decoding uses them one sequence at a time):
//
//   * Rows are laid out structure-of-arrays, [drift_state][lane], and only
//     two are kept: row j is written while row j - 1 is read, and the
//     closing tail reads row n alone, so the cell for (row j, drift d,
//     lane l) lives at ((j & 1) * W + idx(d)) * Bp + l, where
//     W = 2 * max_drift + 1 is the drift-column count and Bp is the lane
//     count padded up to the SIMD vector width. Cells of a reused row
//     outside its band window are stale and never read: propagation
//     sources stay inside the previous row's band, and the tail inside
//     row n's. The hot lane loops are the runtime-dispatched kernels of
//     lattice_simd.hpp — explicit AVX-512 / AVX2 / NEON translation units
//     selected once at startup (util::active_simd_path(), overridable with
//     CCAP_SIMD) — so the engine runs full vectors regardless of how the
//     surrounding code was compiled. A shared-weight row is one call per
//     stage over its whole drift window: the emission fill, the
//     propagation (with the per-lane mask and the row norms folded in)
//     and the divide; the per-lane-parameter mode propagates column by
//     column, then masks, sums and divides by row. Padding lanes carry
//     exactly 0.0 through every linear operation and their norms are
//     pinned to 1.0 before the shared divides, so they never produce
//     NaN/Inf and never perturb a real lane. All arenas come from the same
//     grow-only LatticeWorkspace the scalar engine uses (64-byte aligned;
//     steady state is allocation-free).
//
//   * Per-row band windows and transition weights are computed once and
//     shared across lanes. With shared weights, P_d = 0 keeps a row's
//     window from growing below the previous band and P_i = 0 from growing
//     above it: those cells are exact +0.0 (docs/THEORY.md section 11).
//     The emission factor of a transmission landing at drift d depends
//     only on (row, d) — received index (j-1) + d — so one emission plane
//     per row replaces the scalar engine's per-(source, run-length)
//     emission gathers, a max_insert_run-fold reduction.
//
//   * Received sequences may have ragged lengths. They are packed into a
//     zero-padded SoA arena; the union drift window is swept and, after
//     accumulation, each lane's cells beyond its own valid window
//     (d > m_l - j) are masked back to exactly 0.0. Because the low edge
//     of the valid window is lane-independent and interleaved +0.0
//     contributions are exact no-ops on non-negative cells, every lane's
//     normalized rows, scales and evidences are BIT-IDENTICAL to the
//     scalar engine (EXPECT_EQ-asserted in
//     tests/info_batch_lattice_test.cpp, and per SIMD path in
//     tests/info_simd_dispatch_test.cpp — the vector kernels use no FMA
//     contraction and no cross-lane reductions, so lane l sees the same
//     IEEE-754 operation sequence on every path).
//
// DriftHmm's two *_batch entry points (log2_likelihood_batch and
// log2_prior_marginal_batch in drift_hmm.hpp, implemented in
// batch_lattice.cpp) and the per-lane-parameter functions below wrap this
// engine. deletion_bounds.cpp feeds each Monte-Carlo thread's blocks
// through them in tiles of resolved_mc_batch lanes, and the MLE's Newton
// fit (estimate_params_mle, param_estimator.cpp) scores each stencil and
// line-search point's trace blocks as the lanes of one
// log2_likelihood_batch call per run of equal sent length.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <stdexcept>

#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/info/lattice_simd.hpp"

namespace ccap::info {

class BatchLatticeEngine {
public:
    /// Binds parameters, tables and a workspace to one lockstep call over
    /// `received.size()` lanes sharing transmitted length `tx_len`.
    /// Allocation-free once the workspace has warmed up.
    BatchLatticeEngine(const DriftParams& params, const DriftTables& tables,
                       std::span<const std::span<const std::uint8_t>> received,
                       std::size_t tx_len, LatticeWorkspace& ws)
        : p_(&params),
          t_(&tables),
          k_(received.size() > 1 ? &active_lane_kernels() : lane_kernels_scalar()),
          n_(tx_len),
          lanes_(received.size()),
          d_max_(params.max_drift) {
        bind(received, ws);
        trail_ = ws.trail(m_max_ + 1);
        trail_[0] = 1.0;
        for (std::size_t k = 1; k <= m_max_; ++k)
            trail_[k] = trail_[k - 1] * params.p_i * t_->inv_m;
    }

    /// Per-lane-parameter mode: lane l runs under lane_params[l]. The
    /// structural fields (alphabet, max_drift, max_insert_run) must agree
    /// across lanes — they fix the lattice shape — while p_d / p_i / p_s
    /// may differ per lane. Weight tables, trailing factors and emission
    /// tables become [.. ][lane] SoA planes replicating the DriftTables
    /// formulas per lane, and the forward sweep runs the per-lane-weight
    /// fma_dest_run_pl kernel: lane l's result is bit-identical to a
    /// scalar engine run under lane_params[l] alone. This is the
    /// common-random-numbers sweep mode of deletion_bounds.cpp: one lattice
    /// pass evaluates a whole parameter-grid tile.
    BatchLatticeEngine(std::span<const DriftParams> lane_params,
                      std::span<const std::span<const std::uint8_t>> received,
                      std::size_t tx_len, LatticeWorkspace& ws)
        : p_(&checked_front(lane_params)),
          t_(nullptr),
          k_(received.size() > 1 ? &active_lane_kernels() : lane_kernels_scalar()),
          n_(tx_len),
          lanes_(received.size()),
          d_max_(p_->max_drift),
          per_lane_(true),
          lane_p_(lane_params) {
        if (lane_params.size() != received.size())
            throw std::invalid_argument(
                "BatchLatticeEngine: lane parameter count != lane count");
        for (const DriftParams& q : lane_params) {
            q.validate();
            if (q.alphabet != p_->alphabet || q.max_drift != p_->max_drift ||
                q.max_insert_run != p_->max_insert_run)
                throw std::invalid_argument(
                    "BatchLatticeEngine: per-lane params must share "
                    "alphabet/max_drift/max_insert_run");
        }
        bind(received, ws);
        build_lane_planes(ws);
    }

    /// Lane count padded to the active SIMD vector width: the stride
    /// between drift columns of one SoA row.
    [[nodiscard]] std::size_t lane_stride() const noexcept { return lanes_pad_; }
    /// The dispatched lane kernels this engine runs (emission-plane callers
    /// use the same table so the whole pass stays on one path).
    [[nodiscard]] const LaneKernels& kernels() const noexcept { return *k_; }

    /// Per-lane emission lookup (per-lane mode; valid for lane < lane_stride(),
    /// padding columns replicate lane 0).
    [[nodiscard]] double emit_lane(std::size_t lane, std::uint8_t r,
                                   std::uint8_t s) const noexcept {
        return etab_pl_[(static_cast<std::size_t>(r) * p_->alphabet + s) * lanes_pad_ + lane];
    }

    /// SoA emission-table plane for table entry (r, s): lane_stride()
    /// doubles, one per lane. The per-lane emission-plane fillers in
    /// batch_lattice.cpp select between these with the lane kernels.
    [[nodiscard]] const double* etab_plane(std::uint8_t r, std::uint8_t s) const noexcept {
        return etab_pl_.data() +
               (static_cast<std::size_t>(r) * p_->alphabet + s) * lanes_pad_;
    }

    /// Lockstep forward pass. emit_plane(ed, j, rxr, planes) must fill
    /// `planes` consecutive emission planes: ed[p * lane_stride() + l] is
    /// lane l's emission factor for its received symbol
    /// rxr[p * lane_stride() + l] at transmitted position j. It is called
    /// once per row, over the row's whole emission window, so callers run
    /// the fill as dispatched row kernels (batch_lattice.cpp). Padding
    /// entries must be finite (any valid-symbol value works; they multiply
    /// zero cells). Every lane's rows/scales/evidence are bit-identical to
    /// a scalar LatticeEngine run on that lane alone.
    template <typename PlaneFn>
    void forward(PlaneFn&& emit_plane) {
        constexpr double kNegInf = -std::numeric_limits<double>::infinity();
        const std::size_t L = lanes_;
        const std::size_t Lp = lanes_pad_;
        const LaneKernels& k = *k_;
        for (std::size_t l = 0; l < L; ++l) {
            alive_[l] = 1;
            scale_[l] = 0.0;
        }
        double* c0 = alpha_.data() + idx(0) * Lp;
        for (std::size_t l = 0; l < L; ++l) c0[l] = 1.0;
        for (std::size_t l = L; l < Lp; ++l) c0[l] = 0.0;  // pads stay zero
        band_[0] = 0;
        band_[1] = 0;

        const int run = p_->max_insert_run;
        // How far a row's window may reach below / above the previous band.
        // With shared weights, P_d = 0 zeroes every deletion weight, so the
        // cell below the band (reached only by a run-0 deletion) is an exact
        // +0.0; P_i = 0 zeroes every weight past run length 1, so the cells
        // above the band are too (docs/THEORY.md section 11). Sweeping
        // those cells adds +0.0 to sums of non-negative terms, so leaving
        // them out changes no bit.
        const int below = !per_lane_ && p_->p_d == 0.0 ? 0 : 1;
        const int above = !per_lane_ && p_->p_i == 0.0 ? 0 : run - 1;
        for (std::size_t j = 1; j <= n_; ++j) {
            const int plo = band_lo(j - 1), phi = band_hi(j - 1);
            int clo = 0, chi = -1;
            if (!union_window(j, clo, chi) || plo > phi) return kill_all_from(j);
            clo = std::max(clo, plo - below);
            chi = std::min(chi, phi + above);
            if (clo > chi) return kill_all_from(j);

            double* __restrict cur = alpha_.data() + (j & 1) * row_stride_;
            const double* __restrict prev = alpha_.data() + ((j - 1) & 1) * row_stride_;

            // One emission plane per drift: a transmission landing at drift
            // d consumed received index (j-1) + d regardless of where it came
            // from. Lowest emission-reachable drift is the previous band lo.
            const int elo = std::max(clo, plo);
            if (elo <= chi)
                emit_plane(emit_.data() + idx(elo) * Lp, j - 1,
                           rx_.data() + static_cast<std::size_t>(
                                            static_cast<long long>(j - 1) + elo) * Lp,
                           static_cast<std::size_t>(chi - elo + 1));

            // Destination-major propagation: each destination cell pulls its
            // whole insert run with the accumulator in registers and is
            // stored exactly once, so no zero-fill pass is needed. A source
            // at drift dp reaches destination d with run length
            // g = d + 1 - dp: the ascending source planes pair with weights
            // walked down from g, and the run-0 pure-deletion term (source
            // d + 1, no emission factor) lands last — the same per-cell
            // contribution order (source-drift ascending) as a source-major
            // scatter, hence bitwise the same sums. Cells past a lane's own
            // valid window (d > m_l - j) consumed pad symbols and are masked
            // back to exactly 0.0; norm_ gets each lane's row sum.
            const std::size_t planes = static_cast<std::size_t>(chi - clo + 1);
            if (per_lane_) {
                for (int d = clo; d <= chi; ++d) {
                    const int dp_min = std::max(plo, d + 1 - run);
                    const int dp_max = std::min(phi, d);
                    const std::size_t cnt =
                        dp_max >= dp_min ? static_cast<std::size_t>(dp_max - dp_min + 1) : 0;
                    const int g0 = cnt ? d + 1 - dp_min : 1;  // in [1, run] when cnt > 0
                    k.fma_dest_run_pl(cur + idx(d) * Lp, prev + idx(dp_min) * Lp,
                                      del_w_pl_.data() + static_cast<std::size_t>(g0) * Lp,
                                      tx_w_pl_.data() + static_cast<std::size_t>(g0 - 1) * Lp,
                                      emit_.data() + idx(d) * Lp,
                                      d + 1 <= phi ? prev + (idx(d) + 1) * Lp : nullptr,
                                      del_w_pl_.data(), cnt, Lp);
                }
                k.mask_norm_row(norm_.data(), cur + idx(clo) * Lp, len_.data(),
                                static_cast<std::ptrdiff_t>(j) + clo, planes, Lp);
            } else {
                const RowSpan span{clo, chi, plo, phi, run, static_cast<std::ptrdiff_t>(j)};
                k.fma_dest_row(cur + idx(0) * Lp, prev + idx(0) * Lp, t_->del_w.data(),
                               t_->tx_w.data(), emit_.data() + idx(0) * Lp, len_.data(),
                               norm_.data(), span, Lp);
            }

            bool any_alive = false;
            for (std::size_t l = 0; l < L; ++l) {
                if (alive_[l] == 0 || !(norm_[l] > 0.0)) {
                    alive_[l] = 0;
                    scale_[l] = kNegInf;
                    norm_[l] = 1.0;  // keeps the shared division a no-op on zeros
                    continue;
                }
                scale_[l] += std::log2(norm_[l]);
                any_alive = true;
            }
            if (!any_alive) return kill_all_from(j);
            for (std::size_t l = L; l < Lp; ++l) norm_[l] = 1.0;  // 0.0 / 1.0 keeps pads clean
            k.divide_row(cur + idx(clo) * Lp, norm_.data(), planes, Lp);
            band_[2 * j] = clo;
            band_[2 * j + 1] = chi;
        }
    }

    /// log2 evidence of `lane` after forward(); -infinity when it died.
    [[nodiscard]] double evidence(std::size_t lane) const noexcept {
        constexpr double kNegInf = -std::numeric_limits<double>::infinity();
        const double t = tail(lane);
        const double scale = scale_[lane];
        if (!(t > 0.0) || scale == kNegInf) return kNegInf;
        return scale + std::log2(t);
    }

private:
    [[nodiscard]] std::size_t idx(int d) const noexcept {
        return static_cast<std::size_t>(d + d_max_);
    }
    [[nodiscard]] int band_lo(std::size_t j) const noexcept { return band_[2 * j]; }
    [[nodiscard]] int band_hi(std::size_t j) const noexcept { return band_[2 * j + 1]; }

    /// Trailing-insertion factor of `lane` at final drift d.
    [[nodiscard]] double trailing(std::size_t lane, int d) const noexcept {
        const long long k = m_[lane] - (static_cast<long long>(n_) + d);
        if (k < 0) return 0.0;
        if (per_lane_)
            return trail_pl_[static_cast<std::size_t>(k) * lanes_pad_ + lane] *
                   one_minus_pi_pl_[lane];
        return trail_[static_cast<std::size_t>(k)] * (1.0 - p_->p_i);
    }

    /// Unnormalized closing mass of `lane` (see LatticeEngine::tail).
    [[nodiscard]] double tail(std::size_t lane) const noexcept {
        double t = 0.0;
        const double* last = alpha_.data() + (n_ & 1) * row_stride_;
        for (int d = band_lo(n_); d <= band_hi(n_); ++d)
            t += last[idx(d) * lanes_pad_ + lane] * trailing(lane, d);
        return t;
    }

    /// Union drift window of row j over all lanes: the low edge is
    /// lane-independent, the high edge uses the longest received sequence.
    bool union_window(std::size_t j, int& lo, int& hi) const noexcept {
        const long long vlo = std::max<long long>(-d_max_, -static_cast<long long>(j));
        const long long vhi = std::min<long long>(
            d_max_, static_cast<long long>(m_max_) - static_cast<long long>(j));
        if (vlo > vhi) return false;
        lo = static_cast<int>(vlo);
        hi = static_cast<int>(vhi);
        return true;
    }

    static const DriftParams& checked_front(std::span<const DriftParams> lane_params) {
        if (lane_params.empty())
            throw std::invalid_argument("BatchLatticeEngine: empty lane parameter span");
        return lane_params.front();
    }

    /// Shared setup: lane stride, received pack and arena grabs. Both
    /// constructors delegate here after fixing the lattice shape.
    void bind(std::span<const std::span<const std::uint8_t>> received,
              LatticeWorkspace& ws) {
        const std::size_t L = lanes_;
        // Lane stride padded to the vector width: full batches round up so
        // the kernel main loops run full vectors (padding lanes hold exactly
        // 0.0 throughout). Tiny batches (L < W) stay unpadded — the x86
        // kernels finish ragged rows with one masked vector op that neither
        // reads nor writes lanes past L, so sub-width batches no longer pay
        // for W-L dead lanes per kernel call.
        const std::size_t W = k_->vector_doubles;
        lanes_pad_ = L < W ? std::max<std::size_t>(1, L) : (L + W - 1) / W * W;
        const std::size_t Lp = lanes_pad_;
        const auto ll = ws.lane_longs(2 * L);
        m_ = ll.subspan(0, L);
        alive_ = ll.subspan(L, L);
        std::size_t m_max = 0;
        for (std::size_t l = 0; l < L; ++l) {
            m_[l] = static_cast<long long>(received[l].size());
            m_max = std::max(m_max, received[l].size());
        }
        m_max_ = m_max;
        // Zero-padded SoA pack of the received sequences; the pad symbol is
        // arbitrary — cells that would consume it are masked back to zero —
        // but padding lanes must hold a valid symbol (0) so emission planes
        // stay finite there.
        rx_ = ws.rx_bytes(std::max<std::size_t>(1, m_max * Lp));
        std::fill(rx_.begin(), rx_.end(), 0);
        for (std::size_t l = 0; l < L; ++l) {
            const auto& r = received[l];
            for (std::size_t k = 0; k < r.size(); ++k) rx_[k * Lp + l] = r[k];
        }
        row_stride_ = static_cast<std::size_t>(2 * d_max_ + 1) * Lp;  // drift columns
        alpha_ = ws.alpha(2 * row_stride_);  // rows j & 1: current and previous
        band_ = ws.bands(2 * (n_ + 1));
        emit_ = ws.scratch(row_stride_);
        const auto ld = ws.lane_doubles(2 * Lp + L);
        norm_ = ld.subspan(0, Lp);
        scale_ = ld.subspan(Lp, L);
        // Received lengths as the row kernels' mask bound; pads get 0.0,
        // which masks only cells that carry 0.0 anyway.
        len_ = ld.subspan(Lp + L, Lp);
        for (std::size_t l = 0; l < Lp; ++l)
            len_[l] = l < L ? static_cast<double>(received[l].size()) : 0.0;
    }

    /// Per-lane SoA weight/trail/emission planes, replicating the
    /// DriftTables formulas lane by lane so each lane's sweep performs the
    /// exact operation sequence of a scalar engine under its own params
    /// (padding columns replicate lane 0 to stay finite).
    void build_lane_planes(LatticeWorkspace& ws) {
        const std::size_t Lp = lanes_pad_;
        const std::size_t runs1 = static_cast<std::size_t>(p_->max_insert_run) + 1;
        const std::size_t A = p_->alphabet;
        const std::size_t cells = (2 * runs1 + (m_max_ + 1) + 1 + A * A) * Lp;
        const auto wp = ws.weight_planes(cells);
        std::size_t off = 0;
        del_w_pl_ = wp.subspan(off, runs1 * Lp);
        off += runs1 * Lp;
        tx_w_pl_ = wp.subspan(off, runs1 * Lp);
        off += runs1 * Lp;
        trail_pl_ = wp.subspan(off, (m_max_ + 1) * Lp);
        off += (m_max_ + 1) * Lp;
        one_minus_pi_pl_ = wp.subspan(off, Lp);
        off += Lp;
        etab_pl_ = wp.subspan(off, A * A * Lp);
        for (std::size_t l = 0; l < Lp; ++l) {
            const DriftParams& q = lane_p_[l < lanes_ ? l : 0];
            const double inv_m = 1.0 / static_cast<double>(q.alphabet);
            double ip = 1.0;  // ins_pow[g], advanced exactly as DriftTables does
            del_w_pl_[l] = ip * q.p_d;
            tx_w_pl_[l] = ip * q.p_t();
            for (std::size_t g = 1; g < runs1; ++g) {
                ip = ip * q.p_i * inv_m;
                del_w_pl_[g * Lp + l] = ip * q.p_d;
                tx_w_pl_[g * Lp + l] = ip * q.p_t();
            }
            trail_pl_[l] = 1.0;
            for (std::size_t k = 1; k <= m_max_; ++k)
                trail_pl_[k * Lp + l] = trail_pl_[(k - 1) * Lp + l] * q.p_i * inv_m;
            one_minus_pi_pl_[l] = 1.0 - q.p_i;
            const double p_sub = q.p_s / (static_cast<double>(q.alphabet) - 1.0);
            for (std::size_t r = 0; r < A; ++r)
                for (std::size_t s = 0; s < A; ++s)
                    etab_pl_[(r * A + s) * Lp + l] = r == s ? 1.0 - q.p_s : p_sub;
        }
    }

    void kill_all_from(std::size_t j) noexcept {
        constexpr double kNegInf = -std::numeric_limits<double>::infinity();
        for (std::size_t l = 0; l < lanes_; ++l) scale_[l] = kNegInf;
        for (std::size_t k = j; k <= n_; ++k) {
            band_[2 * k] = 1;
            band_[2 * k + 1] = 0;
        }
    }

    const DriftParams* p_;
    const DriftTables* t_;
    const LaneKernels* k_;
    std::size_t n_;
    std::size_t lanes_;
    std::size_t lanes_pad_ = 0;
    std::size_t m_max_ = 0;
    int d_max_;
    std::size_t row_stride_ = 0;
    std::span<long long> m_, alive_;
    std::span<std::uint8_t> rx_;
    std::span<double> trail_;
    std::span<double> alpha_;
    /// Running log2 row scale of each lane: the sum of log2 row norms
    /// through the last row swept, -infinity once the lane dies. One per
    /// lane suffices: row j reads row j - 1's, and the evidence row n's.
    std::span<double> scale_;
    std::span<double> emit_;
    std::span<double> norm_;
    std::span<double> len_;
    std::span<int> band_;
    bool per_lane_ = false;
    std::span<const DriftParams> lane_p_;
    std::span<double> del_w_pl_, tx_w_pl_, trail_pl_, one_minus_pi_pl_, etab_pl_;
};

// Per-lane-parameter batched entry points (batch_lattice.cpp): lane i runs
// under lane_params[i], whose structural fields (alphabet, max_drift,
// max_insert_run) must agree across lanes. Every lane's result is
// bit-identical to the scalar call under lane_params[i] alone. These power the
// common-random-numbers point-tile sweeps of deletion_bounds.cpp, which
// evaluate one realized received sequence under a whole grid tile of
// channel parameters in a single lattice pass.

/// Batched log2_likelihood with per-lane parameters: lane i pairs
/// transmitted[i] with received[i] under lane_params[i].
[[nodiscard]] std::vector<LaneEvidence> log2_likelihood_batch_per_lane(
    std::span<const DriftParams> lane_params,
    std::span<const std::span<const std::uint8_t>> transmitted,
    std::span<const std::span<const std::uint8_t>> received, LatticeWorkspace& ws);

/// Batched log2_prior_marginal with per-lane parameters: one shared priors
/// matrix (n x alphabet), one received sequence per lane.
[[nodiscard]] std::vector<LaneEvidence> log2_prior_marginal_batch_per_lane(
    std::span<const DriftParams> lane_params, const util::Matrix& priors,
    std::span<const std::span<const std::uint8_t>> received, LatticeWorkspace& ws);

}  // namespace ccap::info
