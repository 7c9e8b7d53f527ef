// AVX2 lane kernels (4 doubles per op).
//
// Compiled with exactly `-march=x86-64 -mtune=generic -mavx2
// -ffp-contract=off` (src/info/CMakeLists.txt): the source-level flags
// override any target-level -march=native so this TU contains AVX2 and
// nothing wider, and no FMA contraction can fuse the separate multiply/add
// intrinsics below. Every op is elementwise IEEE-754, so each lane
// computes exactly what the scalar reference kernel computes; the selects
// blend exact table entries (selector bytes are validated symbols in
// {0, 1}), matching the scalar arithmetic select bit for bit.
//
// Ragged tails (L not a multiple of 4) run one masked vector iteration via
// vmaskmovpd instead of a scalar loop: masked-out lanes are neither read nor
// written (the instruction architecturally suppresses their memory access,
// so a tail at the end of a buffer cannot fault), loads fill them with 0.0,
// and the arithmetic on those dead lanes is discarded by the masked store.
// Live lanes see the identical elementwise operations, so tail results stay
// bit-identical to the scalar reference.
#include "ccap/info/lattice_simd.hpp"
#include "lattice_rows.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

namespace ccap::info {

namespace {

constexpr std::size_t kW = 4;

/// Zero-extend 4 selector bytes to 4 x 64-bit lanes.
inline __m256i load_sel4(const std::uint8_t* sel) {
    std::uint32_t packed;
    std::memcpy(&packed, sel, sizeof packed);
    return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(packed)));
}

/// Zero-extend only `rem` < 4 selector bytes; the rest decode as symbol 0.
/// The partial memcpy never reads past sel[rem-1].
inline __m256i load_sel_tail(const std::uint8_t* sel, std::size_t rem) {
    std::uint32_t packed = 0;
    std::memcpy(&packed, sel, rem);
    return _mm256_cvtepu8_epi64(_mm_cvtsi32_si128(static_cast<int>(packed)));
}

/// All-ones in lanes [0, rem), zero above — the vmaskmovpd lane mask.
inline __m256i tail_mask(std::size_t rem) {
    const __m256i lane = _mm256_set_epi64x(3, 2, 1, 0);
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(static_cast<long long>(rem)), lane);
}

inline __m256d mload(const double* p, __m256i m) { return _mm256_maskload_pd(p, m); }
inline void mstore(double* p, __m256i m, __m256d v) { _mm256_maskstore_pd(p, m, v); }

void k_axpy(double* dst, const double* src, double w, std::size_t L) {
    const __m256d wv = _mm256_set1_pd(w);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d d = _mm256_loadu_pd(dst + l);
        const __m256d s = _mm256_loadu_pd(src + l);
        _mm256_storeu_pd(dst + l, _mm256_add_pd(d, _mm256_mul_pd(s, wv)));
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        const __m256d d = mload(dst + l, m);
        const __m256d s = mload(src + l, m);
        mstore(dst + l, m, _mm256_add_pd(d, _mm256_mul_pd(s, wv)));
    }
}

void k_fma_weighted(double* dst, const double* src, double dw, double tw, const double* e,
                    std::size_t L) {
    const __m256d dwv = _mm256_set1_pd(dw);
    const __m256d twv = _mm256_set1_pd(tw);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d ev = _mm256_loadu_pd(e + l);
        const __m256d wv = _mm256_add_pd(dwv, _mm256_mul_pd(twv, ev));
        const __m256d d = _mm256_loadu_pd(dst + l);
        const __m256d s = _mm256_loadu_pd(src + l);
        _mm256_storeu_pd(dst + l, _mm256_add_pd(d, _mm256_mul_pd(s, wv)));
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        const __m256d ev = mload(e + l, m);
        const __m256d wv = _mm256_add_pd(dwv, _mm256_mul_pd(twv, ev));
        const __m256d d = mload(dst + l, m);
        const __m256d s = mload(src + l, m);
        mstore(dst + l, m, _mm256_add_pd(d, _mm256_mul_pd(s, wv)));
    }
}

void k_accumulate(double* acc, const double* src, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d a = _mm256_loadu_pd(acc + l);
        const __m256d s = _mm256_loadu_pd(src + l);
        _mm256_storeu_pd(acc + l, _mm256_add_pd(a, s));
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        mstore(acc + l, m, _mm256_add_pd(mload(acc + l, m), mload(src + l, m)));
    }
}

void k_maximum(double* acc, const double* src, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d a = _mm256_loadu_pd(acc + l);
        const __m256d s = _mm256_loadu_pd(src + l);
        _mm256_storeu_pd(acc + l, _mm256_max_pd(a, s));
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        mstore(acc + l, m, _mm256_max_pd(mload(acc + l, m), mload(src + l, m)));
    }
}

void k_divide(double* dst, const double* norm, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d d = _mm256_loadu_pd(dst + l);
        const __m256d n = _mm256_loadu_pd(norm + l);
        _mm256_storeu_pd(dst + l, _mm256_div_pd(d, n));
    }
    if (l < L) {
        // Dead lanes divide 0/0 -> NaN; the masked store discards them and
        // nothing in the library inspects the FP status flags.
        const __m256i m = tail_mask(L - l);
        mstore(dst + l, m, _mm256_div_pd(mload(dst + l, m), mload(norm + l, m)));
    }
}

void k_select_const(double* ed, const std::uint8_t* sel, double v0, double v1,
                    std::size_t L) {
    const __m256d v0v = _mm256_set1_pd(v0);
    const __m256d v1v = _mm256_set1_pd(v1);
    const __m256i zero = _mm256_setzero_si256();
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        // All-ones where sel == 0; blendv picks its second operand there.
        const __m256d is0 =
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(load_sel4(sel + l), zero));
        _mm256_storeu_pd(ed + l, _mm256_blendv_pd(v1v, v0v, is0));
    }
    if (l < L) {
        const std::size_t rem = L - l;
        const __m256d is0 =
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(load_sel_tail(sel + l, rem), zero));
        mstore(ed + l, tail_mask(rem), _mm256_blendv_pd(v1v, v0v, is0));
    }
}

void k_select_lanes(double* ed, const std::uint8_t* sel, const double* e0, const double* e1,
                    std::size_t L) {
    const __m256i zero = _mm256_setzero_si256();
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d is0 =
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(load_sel4(sel + l), zero));
        const __m256d a = _mm256_loadu_pd(e0 + l);
        const __m256d b = _mm256_loadu_pd(e1 + l);
        _mm256_storeu_pd(ed + l, _mm256_blendv_pd(b, a, is0));
    }
    if (l < L) {
        const std::size_t rem = L - l;
        const __m256i m = tail_mask(rem);
        const __m256d is0 =
            _mm256_castsi256_pd(_mm256_cmpeq_epi64(load_sel_tail(sel + l, rem), zero));
        mstore(ed + l, m, _mm256_blendv_pd(mload(e1 + l, m), mload(e0 + l, m), is0));
    }
}

void k_fma_run(double* dst, const double* src, const double* dw, const double* tw,
               const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d s = _mm256_loadu_pd(src + l);  // reused across the run
        for (std::size_t g = 0; g < runs; ++g) {
            double* d = dst + g * L + l;
            const __m256d ev = _mm256_loadu_pd(e + g * L + l);
            const __m256d wv =
                _mm256_add_pd(_mm256_set1_pd(dw[g]), _mm256_mul_pd(_mm256_set1_pd(tw[g]), ev));
            _mm256_storeu_pd(d, _mm256_add_pd(_mm256_loadu_pd(d), _mm256_mul_pd(s, wv)));
        }
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        const __m256d s = mload(src + l, m);
        for (std::size_t g = 0; g < runs; ++g) {
            double* d = dst + g * L + l;
            const __m256d ev = mload(e + g * L + l, m);
            const __m256d wv =
                _mm256_add_pd(_mm256_set1_pd(dw[g]), _mm256_mul_pd(_mm256_set1_pd(tw[g]), ev));
            mstore(d, m, _mm256_add_pd(mload(d, m), _mm256_mul_pd(s, wv)));
        }
    }
}

void k_fma_acc_run(double* acc, const double* src, const double* dw, const double* tw,
                   const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        __m256d a = _mm256_loadu_pd(acc + l);
        for (std::size_t g = 0; g < runs; ++g) {  // g-ascending: unfused add order
            const __m256d sv = _mm256_loadu_pd(src + g * L + l);
            const __m256d ev = _mm256_loadu_pd(e + g * L + l);
            const __m256d wv =
                _mm256_add_pd(_mm256_set1_pd(dw[g]), _mm256_mul_pd(_mm256_set1_pd(tw[g]), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        _mm256_storeu_pd(acc + l, a);
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        __m256d a = mload(acc + l, m);
        for (std::size_t g = 0; g < runs; ++g) {
            const __m256d sv = mload(src + g * L + l, m);
            const __m256d ev = mload(e + g * L + l, m);
            const __m256d wv =
                _mm256_add_pd(_mm256_set1_pd(dw[g]), _mm256_mul_pd(_mm256_set1_pd(tw[g]), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        mstore(acc + l, m, a);
    }
}

void k_fma_dest_run(double* dst, const double* src, const double* dw, const double* tw,
                    const double* e, const double* src_del, double w_del,
                    std::size_t cnt, std::size_t L) {
    const __m256d wdel = _mm256_set1_pd(w_del);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d ev = _mm256_loadu_pd(e + l);  // unused garbage when cnt == 0
        __m256d a = _mm256_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
            const __m256d sv = _mm256_loadu_pd(src + i * L + l);
            const __m256d wv =
                _mm256_add_pd(_mm256_set1_pd(dw[gi]), _mm256_mul_pd(_mm256_set1_pd(tw[gi]), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        if (src_del) a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(src_del + l), wdel));
        _mm256_storeu_pd(dst + l, a);
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        const __m256d ev = mload(e + l, m);
        __m256d a = _mm256_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
            const __m256d sv = mload(src + i * L + l, m);
            const __m256d wv =
                _mm256_add_pd(_mm256_set1_pd(dw[gi]), _mm256_mul_pd(_mm256_set1_pd(tw[gi]), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        if (src_del) a = _mm256_add_pd(a, _mm256_mul_pd(mload(src_del + l, m), wdel));
        mstore(dst + l, m, a);
    }
}

void k_axpy_lanes(double* dst, const double* src, const double* w, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d d = _mm256_loadu_pd(dst + l);
        const __m256d s = _mm256_loadu_pd(src + l);
        _mm256_storeu_pd(dst + l,
                         _mm256_add_pd(d, _mm256_mul_pd(s, _mm256_loadu_pd(w + l))));
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        const __m256d d = mload(dst + l, m);
        const __m256d s = mload(src + l, m);
        mstore(dst + l, m, _mm256_add_pd(d, _mm256_mul_pd(s, mload(w + l, m))));
    }
}

void k_fma_acc_run_pl(double* acc, const double* src, const double* dw, const double* tw,
                      const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        __m256d a = _mm256_loadu_pd(acc + l);
        for (std::size_t g = 0; g < runs; ++g) {  // g-ascending: unfused add order
            const __m256d sv = _mm256_loadu_pd(src + g * L + l);
            const __m256d ev = _mm256_loadu_pd(e + g * L + l);
            const __m256d wv = _mm256_add_pd(
                _mm256_loadu_pd(dw + g * L + l),
                _mm256_mul_pd(_mm256_loadu_pd(tw + g * L + l), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        _mm256_storeu_pd(acc + l, a);
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        __m256d a = mload(acc + l, m);
        for (std::size_t g = 0; g < runs; ++g) {
            const __m256d sv = mload(src + g * L + l, m);
            const __m256d ev = mload(e + g * L + l, m);
            const __m256d wv = _mm256_add_pd(
                mload(dw + g * L + l, m), _mm256_mul_pd(mload(tw + g * L + l, m), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        mstore(acc + l, m, a);
    }
}

void k_fma_dest_run_pl(double* dst, const double* src, const double* dw, const double* tw,
                       const double* e, const double* src_del, const double* w_del,
                       std::size_t cnt, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m256d ev = _mm256_loadu_pd(e + l);  // unused garbage when cnt == 0
        __m256d a = _mm256_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi =
                -static_cast<std::ptrdiff_t>(i * L) + static_cast<std::ptrdiff_t>(l);
            const __m256d sv = _mm256_loadu_pd(src + i * L + l);
            const __m256d wv = _mm256_add_pd(
                _mm256_loadu_pd(dw + gi), _mm256_mul_pd(_mm256_loadu_pd(tw + gi), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        if (src_del)
            a = _mm256_add_pd(a, _mm256_mul_pd(_mm256_loadu_pd(src_del + l),
                                               _mm256_loadu_pd(w_del + l)));
        _mm256_storeu_pd(dst + l, a);
    }
    if (l < L) {
        const __m256i m = tail_mask(L - l);
        const __m256d ev = mload(e + l, m);
        __m256d a = _mm256_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi =
                -static_cast<std::ptrdiff_t>(i * L) + static_cast<std::ptrdiff_t>(l);
            const __m256d sv = mload(src + i * L + l, m);
            const __m256d wv =
                _mm256_add_pd(mload(dw + gi, m), _mm256_mul_pd(mload(tw + gi, m), ev));
            a = _mm256_add_pd(a, _mm256_mul_pd(sv, wv));
        }
        if (src_del)
            a = _mm256_add_pd(a,
                              _mm256_mul_pd(mload(src_del + l, m), mload(w_del + l, m)));
        mstore(dst + l, m, a);
    }
}

// ---------------------------------------------------------------------------
// Row kernels. Each walks the lane vectors of the row (full ones, then one
// masked tail) and, within a lane vector, the row's drift planes.
// ---------------------------------------------------------------------------

/// Loads and stores of one lane vector: full, or masked to the tail lanes.
template <bool kTail>
struct Lanes {
    __m256i m;
    [[nodiscard]] __m256d load(const double* p) const {
        if constexpr (kTail) return mload(p, m);
        return _mm256_loadu_pd(p);
    }
    void store(double* p, __m256d v) const {
        if constexpr (kTail) mstore(p, m, v);
        else _mm256_storeu_pd(p, v);
    }
    /// All-ones in the lanes whose selector byte is 0.
    [[nodiscard]] __m256d sel_is0(const std::uint8_t* p, std::size_t rem) const {
        const __m256i v = kTail ? load_sel_tail(p, rem) : load_sel4(p);
        return _mm256_castsi256_pd(_mm256_cmpeq_epi64(v, _mm256_setzero_si256()));
    }
};

/// Run `body(lanes, l, rem)` over every lane vector of a row of L lanes.
template <typename Body>
void for_lane_vectors(std::size_t L, Body&& body) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) body(Lanes<false>{_mm256_set1_epi64x(-1)}, l, kW);
    if (l < L) body(Lanes<true>{tail_mask(L - l)}, l, L - l);
}

/// Zero the lanes whose drift position pos lies past their received
/// length, store the cell and add it into the running norm.
template <bool kTail>
inline void mask_store_norm(const Lanes<kTail>& io, double* c, __m256d a, __m256d lenv,
                            std::ptrdiff_t pos, __m256d& nrm) {
    const __m256d keep =
        _mm256_cmp_pd(_mm256_set1_pd(static_cast<double>(pos)), lenv, _CMP_LE_OQ);
    a = _mm256_and_pd(a, keep);
    io.store(c, a);
    nrm = _mm256_add_pd(nrm, a);
}

void k_select_lanes_row(double* ed, const std::uint8_t* sel, const double* e0,
                        const double* e1, std::size_t planes, std::size_t L) {
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t rem) {
        const __m256d a = io.load(e0 + l);
        const __m256d b = io.load(e1 + l);
        for (std::size_t p = 0; p < planes; ++p)
            io.store(ed + p * L + l, _mm256_blendv_pd(b, a, io.sel_is0(sel + p * L + l, rem)));
    });
}

void k_mask_norm_row(double* norm, double* cells, const double* len, std::ptrdiff_t pos0,
                     std::size_t planes, std::size_t L) {
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t) {
        const __m256d lenv = io.load(len + l);
        __m256d nrm = _mm256_setzero_pd();
        for (std::size_t p = 0; p < planes; ++p) {
            double* c = cells + p * L + l;
            mask_store_norm(io, c, io.load(c), lenv,
                            pos0 + static_cast<std::ptrdiff_t>(p), nrm);
        }
        io.store(norm + l, nrm);
    });
}

void k_divide_row(double* dst, const double* norm, std::size_t planes, std::size_t L) {
    // Tail: dead lanes divide 0/0 -> NaN, discarded by the masked store.
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t) {
        const __m256d n = io.load(norm + l);
        for (std::size_t p = 0; p < planes; ++p) {
            double* c = dst + p * L + l;
            io.store(c, _mm256_div_pd(io.load(c), n));
        }
    });
}

/// Destination columns per register block of the row propagation.
constexpr int kBlock = 4;

void k_fma_dest_row(double* cur, const double* prev, const double* dw, const double* tw,
                    const double* e, const double* len, double* norm, const RowSpan& s,
                    std::size_t L) {
    const auto P = [L](int d) { return plane(d, L); };
    const __m256d wdel = _mm256_set1_pd(dw[0]);
    // Interior: columns with a full insert run (cnt == run, g0 == run) and a
    // deletion source, so kBlock neighbours share one loop over the run.
    const int ilo = std::max(s.clo, s.plo + s.run - 1);
    const int ihi = std::min(s.chi, s.phi - 1);
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t) {
        const __m256d lenv = io.load(len + l);
        __m256d nrm = _mm256_setzero_pd();
        const auto column = [&](int d) {  // fma_dest_run's cell, one column
            const DestColumn c = dest_column(s, d);
            __m256d a = _mm256_setzero_pd();
            if (c.cnt) {
                const __m256d ev = io.load(e + P(d) + l);
                const double* src = prev + P(c.dp_min) + l;
                for (std::size_t i = 0; i < c.cnt; ++i) {
                    const int g = c.g0 - static_cast<int>(i);
                    const __m256d wv = _mm256_add_pd(
                        _mm256_set1_pd(dw[g]), _mm256_mul_pd(_mm256_set1_pd(tw[g - 1]), ev));
                    a = _mm256_add_pd(a, _mm256_mul_pd(io.load(src + i * L), wv));
                }
            }
            if (c.del) a = _mm256_add_pd(a, _mm256_mul_pd(io.load(prev + P(d + 1) + l), wdel));
            mask_store_norm(io, cur + P(d) + l, a, lenv, s.row + d, nrm);
        };
        int d = s.clo;
        for (; d < ilo && d <= s.chi; ++d) column(d);
        for (; d + kBlock - 1 <= ihi; d += kBlock) {
            // Column d + c takes source d + c + 1 - run + i at run length
            // run - i: the same terms, in the same order, as column(d + c).
            __m256d ev[kBlock], a[kBlock];
            for (int c = 0; c < kBlock; ++c) {
                ev[c] = io.load(e + P(d + c) + l);
                a[c] = _mm256_setzero_pd();
            }
            const double* src = prev + P(d + 1 - s.run) + l;
            for (int i = 0; i < s.run; ++i) {
                const __m256d wd = _mm256_set1_pd(dw[s.run - i]);
                const __m256d wt = _mm256_set1_pd(tw[s.run - 1 - i]);
                const double* si = src + P(i);
                for (int c = 0; c < kBlock; ++c)
                    a[c] = _mm256_add_pd(
                        a[c], _mm256_mul_pd(io.load(si + P(c)),
                                            _mm256_add_pd(wd, _mm256_mul_pd(wt, ev[c]))));
            }
            for (int c = 0; c < kBlock; ++c) {
                a[c] = _mm256_add_pd(a[c],
                                     _mm256_mul_pd(io.load(prev + P(d + c + 1) + l), wdel));
                mask_store_norm(io, cur + P(d + c) + l, a[c], lenv, s.row + d + c, nrm);
            }
        }
        for (; d <= s.chi; ++d) column(d);
        io.store(norm + l, nrm);
    });
}

constexpr LaneKernels kAvx2Kernels = {
    k_axpy,         k_fma_weighted, k_accumulate,     k_maximum,     k_divide,
    k_select_const, k_select_lanes, k_fma_run,        k_fma_acc_run,
    k_fma_dest_run, k_axpy_lanes,   k_fma_acc_run_pl, k_fma_dest_run_pl,
    k_select_lanes_row, k_fma_dest_row, k_mask_norm_row, k_divide_row,
    "avx2",         kW,             util::SimdPath::avx2,
};

}  // namespace

const LaneKernels* lane_kernels_avx2() noexcept { return &kAvx2Kernels; }

}  // namespace ccap::info

#endif  // x86
