// Zero-allocation lattice engine for the Davey-MacKay drift HMM.
//
// Every capacity estimate in this repo bottoms out in forward/backward
// sweeps over the drift lattice (drift_hmm.hpp). The seed implementation
// heap-allocated a fresh vector<vector<double>> per call and always swept
// the full [-max_drift, +max_drift] band. This header provides the three
// pieces that remove both costs:
//
//   * LatticeWorkspace — a caller-owned arena of flat, row-major buffers.
//     Buffers grow to the high-water mark and are then reused, so a
//     workspace that is kept across calls reaches a steady state with zero
//     per-call allocation. One workspace per thread; not thread-safe.
//
//   * DriftTables — the per-parameter lookup tables (emission matrix,
//     insertion-run powers, pre-folded transition weights). Immutable after
//     construction and therefore shareable across threads; DriftHmm builds
//     one at construction time.
//
//   * LatticeEngine — a per-call view that runs the forward/backward
//     passes over flat rows. The forward pass sweeps, per row, the drift
//     window reachable from the previous row within the valid window
//     (band_lo/band_hi); every cell outside it is exactly zero in the seed
//     implementation, and the cells inside are visited with the seed's
//     floating-point operation order, so results are bit-identical.
//
// watermark.cpp reuses LatticeWorkspace for its own trellis so the repo
// has one flat-row DP idiom.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <new>
#include <span>
#include <vector>

#include "ccap/info/drift_hmm.hpp"

namespace ccap::info {

/// Minimal std::allocator replacement with a fixed alignment. The batched
/// SoA engine pads its lane stride to the SIMD vector width; aligning the
/// arena base to a cache line (64 bytes covers every path up to AVX-512)
/// makes every padded column start vector-aligned.
template <typename T, std::size_t Align>
struct AlignedAllocator {
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0);
    using value_type = T;

    AlignedAllocator() = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align>&) noexcept {}  // NOLINT(google-explicit-constructor)

    [[nodiscard]] T* allocate(std::size_t n) {
        return static_cast<T*>(::operator new(n * sizeof(T), std::align_val_t{Align}));
    }
    void deallocate(T* p, std::size_t) noexcept {
        ::operator delete(p, std::align_val_t{Align});
    }
    bool operator==(const AlignedAllocator&) const noexcept { return true; }
    template <typename U>
    struct rebind {
        using other = AlignedAllocator<U, Align>;
    };
};

template <typename T>
using ArenaVector = std::vector<T, AlignedAllocator<T, 64>>;

/// Grow-only flat arenas backing trellis passes. request() methods never
/// shrink and never zero — each pass initializes exactly the cells it
/// reads. Reuse across calls is the whole point; share across threads and
/// you have a race.
class LatticeWorkspace {
public:
    LatticeWorkspace() = default;
    LatticeWorkspace(const LatticeWorkspace&) = delete;
    LatticeWorkspace& operator=(const LatticeWorkspace&) = delete;

    [[nodiscard]] std::span<double> alpha(std::size_t cells) { return grab(alpha_, cells); }
    [[nodiscard]] std::span<double> beta(std::size_t cells) { return grab(beta_, cells); }
    /// Interleaved per-row band bounds: [2j] = lo, [2j+1] = hi (lo > hi
    /// means the row is empty/dead).
    [[nodiscard]] std::span<int> bands(std::size_t ints) { return grab(band_, ints); }
    [[nodiscard]] std::span<double> trail(std::size_t cells) { return grab(trail_, cells); }
    [[nodiscard]] std::span<double> scratch(std::size_t cells) { return grab(scr1_, cells); }
    [[nodiscard]] std::span<double> scratch2(std::size_t cells) { return grab(scr2_, cells); }
    [[nodiscard]] std::span<double> scratch3(std::size_t cells) { return grab(scr3_, cells); }

    // Arenas for the batched structure-of-arrays engine (batch_lattice.hpp).
    /// Small per-lane double buffers (row norms, running row scales).
    [[nodiscard]] std::span<double> lane_doubles(std::size_t cells) {
        return grab(lane_d_, cells);
    }
    /// Small per-lane integer buffers (received lengths, alive flags).
    [[nodiscard]] std::span<long long> lane_longs(std::size_t cells) {
        return grab(lane_ll_, cells);
    }
    /// SoA-packed received symbols, [position][lane], padded per lane.
    [[nodiscard]] std::span<std::uint8_t> rx_bytes(std::size_t cells) {
        return grab(rx_u8_, cells);
    }
    /// SoA-packed transmitted symbols, [position][lane].
    [[nodiscard]] std::span<std::uint8_t> tx_bytes(std::size_t cells) {
        return grab(tx_u8_, cells);
    }
    /// Per-lane weight/emission planes for the per-lane-parameter engine
    /// mode: [run | trail-step | table-entry][lane] SoA rows, one value per
    /// lane instead of one shared scalar.
    [[nodiscard]] std::span<double> weight_planes(std::size_t cells) {
        return grab(wplanes_, cells);
    }

private:
    template <typename Vec>
    static std::span<typename Vec::value_type> grab(Vec& v, std::size_t n) {
        if (v.size() < n) v.resize(n);
        return {v.data(), n};
    }

    ArenaVector<double> alpha_, beta_, trail_, scr1_, scr2_, scr3_, lane_d_,
        wplanes_;
    ArenaVector<int> band_;
    ArenaVector<long long> lane_ll_;
    ArenaVector<std::uint8_t> rx_u8_, tx_u8_;
};

/// RAII lease on a thread-local LatticeWorkspace. Acquisition pops from a
/// per-thread free list (or allocates the first time a thread needs one),
/// so nested leases on the same thread get distinct workspaces and pool
/// workers each converge on their own steady-state arena.
class ScopedWorkspace {
public:
    ScopedWorkspace();
    ~ScopedWorkspace();
    ScopedWorkspace(const ScopedWorkspace&) = delete;
    ScopedWorkspace& operator=(const ScopedWorkspace&) = delete;

    [[nodiscard]] LatticeWorkspace& get() noexcept { return *ws_; }
    operator LatticeWorkspace&() noexcept { return *ws_; }  // NOLINT(google-explicit-constructor)

private:
    std::unique_ptr<LatticeWorkspace> ws_;
};

/// Immutable per-parameter lookup tables shared by every lattice pass.
/// del_w[g] / tx_w[g] pre-fold the insertion-run power into the deletion /
/// transmission branch weights; the products equal the seed code's inline
/// expressions bit for bit.
struct DriftTables {
    double p_t = 0.0;              ///< 1 - p_d - p_i
    double inv_m = 0.0;            ///< 1 / alphabet
    std::vector<double> emit_tab;  ///< M x M substitution table, row-major [r][s]
    std::vector<double> ins_pow;   ///< (p_i / M)^g for g = 0..max_insert_run
    std::vector<double> del_w;     ///< ins_pow[g] * p_d
    std::vector<double> tx_w;      ///< ins_pow[g] * p_t

    explicit DriftTables(const DriftParams& p);

    /// Emission of received symbol r averaged over a prior q(s) (q.size()
    /// = alphabet): sum_s q[s] * emit_tab[r][s], accumulated in ascending
    /// s. The one definition every prior-weighted lattice pass uses, so
    /// scalar and batched passes agree bit for bit.
    [[nodiscard]] double emit_prior(std::uint8_t r, std::span<const double> q) const noexcept {
        const double* row = emit_tab.data() + static_cast<std::size_t>(r) * q.size();
        double e = 0.0;
        for (std::size_t s = 0; s < q.size(); ++s) e += q[s] * row[s];
        return e;
    }
};

class LatticeEngine {
public:
    /// Binds parameters, tables and a workspace to one (received, tx_len)
    /// call. Allocation-free once the workspace has warmed up.
    LatticeEngine(const DriftParams& params, const DriftTables& tables,
                  std::span<const std::uint8_t> received, std::size_t tx_len,
                  LatticeWorkspace& ws)
        : p_(&params),
          t_(&tables),
          rx_(received),
          n_(tx_len),
          m_(received.size()),
          d_max_(params.max_drift),
          width_(static_cast<std::size_t>(2 * params.max_drift + 1)) {
        trail_ = ws.trail(m_ + 1);
        trail_[0] = 1.0;
        for (std::size_t k = 1; k <= m_; ++k) trail_[k] = trail_[k - 1] * params.p_i * t_->inv_m;
        alpha_ = ws.alpha((n_ + 1) * width_);
        beta_ = ws.beta((n_ + 1) * width_);
        band_ = ws.bands(2 * (n_ + 1));
    }

    [[nodiscard]] std::size_t width() const noexcept { return width_; }
    [[nodiscard]] std::size_t idx(int d) const noexcept {
        return static_cast<std::size_t>(d + d_max_);
    }

    /// P(received symbol r | transmitted symbol s): emission-table lookup.
    [[nodiscard]] double emit(std::uint8_t r, std::uint8_t s) const noexcept {
        return t_->emit_tab[static_cast<std::size_t>(r) * p_->alphabet + s];
    }

    /// Emission averaged over a prior q(s) for received symbol r.
    [[nodiscard]] double emit_prior(std::uint8_t r, std::span<const double> q) const noexcept {
        return t_->emit_prior(r, q);
    }

    /// Trailing-insertion factor at final drift d (exact, no truncation).
    [[nodiscard]] double trailing(int d) const noexcept {
        const long long k = static_cast<long long>(m_) - (static_cast<long long>(n_) + d);
        if (k < 0) return 0.0;
        return trail_[static_cast<std::size_t>(k)] * (1.0 - p_->p_i);
    }

    /// Drift window of row j permitted by the clamp and the received
    /// length: d in [max(-d_max, -j), min(d_max, m - j)]. Returns false
    /// when the window is empty.
    bool valid_window(std::size_t j, int& lo, int& hi) const noexcept {
        const long long vlo =
            std::max<long long>(-d_max_, -static_cast<long long>(j));
        const long long vhi = std::min<long long>(
            d_max_, static_cast<long long>(m_) - static_cast<long long>(j));
        if (vlo > vhi) return false;
        lo = static_cast<int>(vlo);
        hi = static_cast<int>(vhi);
        return true;
    }

    // Flat row accessors (valid after the corresponding pass).
    [[nodiscard]] const double* alpha_row(std::size_t j) const noexcept {
        return alpha_.data() + j * width_;
    }
    [[nodiscard]] const double* beta_row(std::size_t j) const noexcept {
        return beta_.data() + j * width_;
    }
    [[nodiscard]] int band_lo(std::size_t j) const noexcept { return band_[2 * j]; }
    [[nodiscard]] int band_hi(std::size_t j) const noexcept { return band_[2 * j + 1]; }

    /// Forward pass. emit_at(j, r) must return the emission factor for
    /// received symbol r at transmitted position j (0-based): a table
    /// lookup for point priors, a prior-weighted dot product otherwise.
    /// Row j sweeps [band_lo(j), band_hi(j)]: the valid window cut to the
    /// drifts reachable from row j - 1, [lo - 1, hi + max_insert_run - 1].
    /// Bit-identical to the seed implementation.
    template <typename EmitFn>
    void forward(EmitFn&& emit_at) {
        double* row0 = alpha_.data();
        row0[idx(0)] = 1.0;
        log2_scale_ = 0.0;
        band_[0] = 0;
        band_[1] = 0;

        const int run = p_->max_insert_run;
        for (std::size_t j = 1; j <= n_; ++j) {
            const int plo = band_lo(j - 1), phi = band_hi(j - 1);
            int clo = 0, chi = -1;
            if (!valid_window(j, clo, chi) || plo > phi) return kill_from(j);
            clo = std::max(clo, plo - 1);
            chi = std::min(chi, phi + run - 1);
            if (clo > chi) return kill_from(j);

            double* cur = alpha_.data() + j * width_;
            const double* prev = alpha_.data() + (j - 1) * width_;
            for (int d = clo; d <= chi; ++d) cur[idx(d)] = 0.0;
            for (int dp = plo; dp <= phi; ++dp) {
                const double ap = prev[idx(dp)];
                if (ap == 0.0) continue;
                // Received symbols consumed before this step: r0 = j-1+dp.
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j - 1) + dp);
                const int glo = std::max(0, clo - dp + 1);
                const int ghi = std::min(run, chi - dp + 1);
                double* base = cur + idx(dp - 1);  // cell for g = 0 (d = dp - 1)
                int g = glo;
                if (g == 0 && g <= ghi) {
                    base[0] += ap * t_->del_w[0];
                    g = 1;
                }
                for (; g <= ghi; ++g) {
                    const double w =
                        t_->del_w[g] + t_->tx_w[g - 1] * emit_at(j - 1, rx_[r0 + g - 1]);
                    base[g] += ap * w;
                }
            }

            double norm = 0.0;
            for (int d = clo; d <= chi; ++d) norm += cur[idx(d)];
            if (!(norm > 0.0)) return kill_from(j);
            for (int d = clo; d <= chi; ++d) cur[idx(d)] /= norm;
            log2_scale_ += std::log2(norm);
            band_[2 * j] = clo;
            band_[2 * j + 1] = chi;
        }
    }

    /// Backward pass, symmetric to forward, swept over the full valid
    /// window of every row, as the seed's backward sweep is: near the
    /// lattice edges the forward band is narrower than the valid window
    /// (row j reaches at most j * (max_insert_run - 1) above drift 0), so
    /// normalizing beta rows over the forward band would perturb posteriors
    /// by a few ulps. Each row is normalized to sum 1 and its scale is not
    /// kept: posteriors() and segment_likelihoods() renormalize per
    /// position, so they read only the shape of a beta row.
    template <typename EmitFn>
    void backward(EmitFn&& emit_at) {
        const int run = p_->max_insert_run;
        {
            double* last = beta_.data() + n_ * width_;
            int lo = 0, hi = -1;
            double norm = 0.0;
            if (valid_window(n_, lo, hi)) {
                for (int d = lo; d <= hi; ++d) {
                    last[idx(d)] = trailing(d);
                    norm += last[idx(d)];
                }
            }
            if (norm > 0.0)
                for (int d = lo; d <= hi; ++d) last[idx(d)] /= norm;
        }
        for (std::size_t j = n_; j-- > 0;) {
            double* cur = beta_.data() + j * width_;
            const double* next = beta_.data() + (j + 1) * width_;
            int lo = 0, hi = -1;
            if (!valid_window(j, lo, hi)) continue;
            int nlo = 0, nhi = -1;
            const bool next_live = valid_window(j + 1, nlo, nhi);
            double norm = 0.0;
            for (int dp = lo; dp <= hi; ++dp) {
                const std::size_t r0 =
                    static_cast<std::size_t>(static_cast<long long>(j) + dp);
                double acc = 0.0;
                if (next_live) {
                    const int glo = std::max(0, nlo - dp + 1);
                    const int ghi = std::min(run, nhi - dp + 1);
                    const double* nbase = next + idx(dp - 1);
                    int g = glo;
                    if (g == 0 && g <= ghi) {
                        acc += t_->del_w[0] * nbase[0];
                        g = 1;
                    }
                    for (; g <= ghi; ++g) {
                        const double w =
                            t_->del_w[g] + t_->tx_w[g - 1] * emit_at(j, rx_[r0 + g - 1]);
                        acc += w * nbase[g];
                    }
                }
                cur[idx(dp)] = acc;
                norm += acc;
            }
            if (norm > 0.0)
                for (int dp = lo; dp <= hi; ++dp) cur[idx(dp)] /= norm;
        }
    }

    /// Unnormalized closing mass: sum over the final band of alpha times
    /// the trailing-insertion factor. Zero when the lattice died.
    [[nodiscard]] double tail() const noexcept {
        double t = 0.0;
        const double* last = alpha_.data() + n_ * width_;
        for (int d = band_lo(n_); d <= band_hi(n_); ++d) t += last[idx(d)] * trailing(d);
        return t;
    }

    /// log2 evidence after forward(); -infinity when the lattice died.
    [[nodiscard]] double evidence() const noexcept {
        constexpr double kNegInf = -std::numeric_limits<double>::infinity();
        const double t = tail();
        if (!(t > 0.0) || log2_scale_ == kNegInf) return kNegInf;
        return log2_scale_ + std::log2(t);
    }

private:
    void kill_from(std::size_t j) noexcept {
        log2_scale_ = -std::numeric_limits<double>::infinity();
        for (std::size_t k = j; k <= n_; ++k) {
            band_[2 * k] = 1;
            band_[2 * k + 1] = 0;
        }
    }

    const DriftParams* p_;
    const DriftTables* t_;
    std::span<const std::uint8_t> rx_;
    std::size_t n_;
    std::size_t m_;
    int d_max_;
    std::size_t width_;
    std::span<double> trail_;
    std::span<double> alpha_, beta_;
    std::span<int> band_;
    /// Sum of log2 forward row norms: row n's alpha times 2^log2_scale_ is
    /// the unnormalized forward mass; -infinity once the lattice died.
    double log2_scale_ = 0.0;
};

}  // namespace ccap::info
