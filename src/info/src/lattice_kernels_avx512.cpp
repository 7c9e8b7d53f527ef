// AVX-512 lane kernels (8 doubles per op).
//
// Compiled with exactly `-march=x86-64 -mtune=generic -mavx512f
// -ffp-contract=off` (src/info/CMakeLists.txt). Same bit-identity
// discipline as the AVX2 TU: separate multiply/add intrinsics (no FMA),
// elementwise ops only, selects realised as mask blends over exact table
// entries keyed on selector bytes in {0, 1}.
//
// Ragged tails (L not a multiple of 8) run one masked vector iteration via
// the native AVX-512F lane masks: `_mm512_maskz_loadu_pd` reads only the
// first `rem` doubles (zeros above, no fault on masked-out addresses) and
// `_mm512_mask_storeu_pd` writes only those lanes. Live lanes execute the
// identical elementwise ops, so tails stay bit-identical to the scalar
// reference.
#include "ccap/info/lattice_simd.hpp"
#include "lattice_rows.hpp"

#if defined(__x86_64__) || defined(__i386__)

#include <immintrin.h>

#include <cstring>

namespace ccap::info {

namespace {

constexpr std::size_t kW = 8;

/// Mask of lanes whose selector byte is non-zero.
inline __mmask8 load_sel8(const std::uint8_t* sel) {
    std::uint64_t packed;
    std::memcpy(&packed, sel, sizeof packed);
    const __m512i v = _mm512_cvtepu8_epi64(
        _mm_cvtsi64_si128(static_cast<long long>(packed)));
    return _mm512_cmpneq_epi64_mask(v, _mm512_setzero_si512());
}

/// load_sel8 over only `rem` < 8 bytes; bytes past the tail decode as
/// symbol 0 (their lanes are masked out of every store anyway). The
/// partial memcpy never reads past sel[rem-1].
inline __mmask8 load_sel_tail(const std::uint8_t* sel, std::size_t rem) {
    std::uint64_t packed = 0;
    std::memcpy(&packed, sel, rem);
    const __m512i v = _mm512_cvtepu8_epi64(
        _mm_cvtsi64_si128(static_cast<long long>(packed)));
    return _mm512_cmpneq_epi64_mask(v, _mm512_setzero_si512());
}

/// Set bits for lanes [0, rem).
inline __mmask8 tail_mask(std::size_t rem) {
    return static_cast<__mmask8>((1u << rem) - 1u);
}

void k_axpy(double* dst, const double* src, double w, std::size_t L) {
    const __m512d wv = _mm512_set1_pd(w);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d d = _mm512_loadu_pd(dst + l);
        const __m512d s = _mm512_loadu_pd(src + l);
        _mm512_storeu_pd(dst + l, _mm512_add_pd(d, _mm512_mul_pd(s, wv)));
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d d = _mm512_maskz_loadu_pd(m, dst + l);
        const __m512d s = _mm512_maskz_loadu_pd(m, src + l);
        _mm512_mask_storeu_pd(dst + l, m, _mm512_add_pd(d, _mm512_mul_pd(s, wv)));
    }
}

void k_fma_weighted(double* dst, const double* src, double dw, double tw, const double* e,
                    std::size_t L) {
    const __m512d dwv = _mm512_set1_pd(dw);
    const __m512d twv = _mm512_set1_pd(tw);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d ev = _mm512_loadu_pd(e + l);
        const __m512d wv = _mm512_add_pd(dwv, _mm512_mul_pd(twv, ev));
        const __m512d d = _mm512_loadu_pd(dst + l);
        const __m512d s = _mm512_loadu_pd(src + l);
        _mm512_storeu_pd(dst + l, _mm512_add_pd(d, _mm512_mul_pd(s, wv)));
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d ev = _mm512_maskz_loadu_pd(m, e + l);
        const __m512d wv = _mm512_add_pd(dwv, _mm512_mul_pd(twv, ev));
        const __m512d d = _mm512_maskz_loadu_pd(m, dst + l);
        const __m512d s = _mm512_maskz_loadu_pd(m, src + l);
        _mm512_mask_storeu_pd(dst + l, m, _mm512_add_pd(d, _mm512_mul_pd(s, wv)));
    }
}

void k_accumulate(double* acc, const double* src, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d a = _mm512_loadu_pd(acc + l);
        const __m512d s = _mm512_loadu_pd(src + l);
        _mm512_storeu_pd(acc + l, _mm512_add_pd(a, s));
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d a = _mm512_maskz_loadu_pd(m, acc + l);
        const __m512d s = _mm512_maskz_loadu_pd(m, src + l);
        _mm512_mask_storeu_pd(acc + l, m, _mm512_add_pd(a, s));
    }
}

void k_maximum(double* acc, const double* src, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d a = _mm512_loadu_pd(acc + l);
        const __m512d s = _mm512_loadu_pd(src + l);
        _mm512_storeu_pd(acc + l, _mm512_max_pd(a, s));
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d a = _mm512_maskz_loadu_pd(m, acc + l);
        const __m512d s = _mm512_maskz_loadu_pd(m, src + l);
        _mm512_mask_storeu_pd(acc + l, m, _mm512_max_pd(a, s));
    }
}

void k_divide(double* dst, const double* norm, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d d = _mm512_loadu_pd(dst + l);
        const __m512d n = _mm512_loadu_pd(norm + l);
        _mm512_storeu_pd(dst + l, _mm512_div_pd(d, n));
    }
    if (l < L) {
        // Dead lanes divide 0/0 -> NaN; the masked store discards them and
        // nothing in the library inspects the FP status flags.
        const __mmask8 m = tail_mask(L - l);
        const __m512d d = _mm512_maskz_loadu_pd(m, dst + l);
        const __m512d n = _mm512_maskz_loadu_pd(m, norm + l);
        _mm512_mask_storeu_pd(dst + l, m, _mm512_div_pd(d, n));
    }
}

void k_select_const(double* ed, const std::uint8_t* sel, double v0, double v1,
                    std::size_t L) {
    const __m512d v0v = _mm512_set1_pd(v0);
    const __m512d v1v = _mm512_set1_pd(v1);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        // mask_blend picks its third operand where the mask bit is set.
        _mm512_storeu_pd(ed + l, _mm512_mask_blend_pd(load_sel8(sel + l), v0v, v1v));
    }
    if (l < L) {
        const std::size_t rem = L - l;
        _mm512_mask_storeu_pd(ed + l, tail_mask(rem),
                              _mm512_mask_blend_pd(load_sel_tail(sel + l, rem), v0v, v1v));
    }
}

void k_select_lanes(double* ed, const std::uint8_t* sel, const double* e0, const double* e1,
                    std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d a = _mm512_loadu_pd(e0 + l);
        const __m512d b = _mm512_loadu_pd(e1 + l);
        _mm512_storeu_pd(ed + l, _mm512_mask_blend_pd(load_sel8(sel + l), a, b));
    }
    if (l < L) {
        const std::size_t rem = L - l;
        const __mmask8 m = tail_mask(rem);
        const __m512d a = _mm512_maskz_loadu_pd(m, e0 + l);
        const __m512d b = _mm512_maskz_loadu_pd(m, e1 + l);
        _mm512_mask_storeu_pd(ed + l, m,
                              _mm512_mask_blend_pd(load_sel_tail(sel + l, rem), a, b));
    }
}

void k_fma_run(double* dst, const double* src, const double* dw, const double* tw,
               const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d s = _mm512_loadu_pd(src + l);  // reused across the run
        for (std::size_t g = 0; g < runs; ++g) {
            double* d = dst + g * L + l;
            const __m512d ev = _mm512_loadu_pd(e + g * L + l);
            const __m512d wv =
                _mm512_add_pd(_mm512_set1_pd(dw[g]), _mm512_mul_pd(_mm512_set1_pd(tw[g]), ev));
            _mm512_storeu_pd(d, _mm512_add_pd(_mm512_loadu_pd(d), _mm512_mul_pd(s, wv)));
        }
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d s = _mm512_maskz_loadu_pd(m, src + l);
        for (std::size_t g = 0; g < runs; ++g) {
            double* d = dst + g * L + l;
            const __m512d ev = _mm512_maskz_loadu_pd(m, e + g * L + l);
            const __m512d wv =
                _mm512_add_pd(_mm512_set1_pd(dw[g]), _mm512_mul_pd(_mm512_set1_pd(tw[g]), ev));
            _mm512_mask_storeu_pd(
                d, m, _mm512_add_pd(_mm512_maskz_loadu_pd(m, d), _mm512_mul_pd(s, wv)));
        }
    }
}

void k_fma_acc_run(double* acc, const double* src, const double* dw, const double* tw,
                   const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        __m512d a = _mm512_loadu_pd(acc + l);
        for (std::size_t g = 0; g < runs; ++g) {  // g-ascending: unfused add order
            const __m512d sv = _mm512_loadu_pd(src + g * L + l);
            const __m512d ev = _mm512_loadu_pd(e + g * L + l);
            const __m512d wv =
                _mm512_add_pd(_mm512_set1_pd(dw[g]), _mm512_mul_pd(_mm512_set1_pd(tw[g]), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        _mm512_storeu_pd(acc + l, a);
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        __m512d a = _mm512_maskz_loadu_pd(m, acc + l);
        for (std::size_t g = 0; g < runs; ++g) {
            const __m512d sv = _mm512_maskz_loadu_pd(m, src + g * L + l);
            const __m512d ev = _mm512_maskz_loadu_pd(m, e + g * L + l);
            const __m512d wv =
                _mm512_add_pd(_mm512_set1_pd(dw[g]), _mm512_mul_pd(_mm512_set1_pd(tw[g]), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        _mm512_mask_storeu_pd(acc + l, m, a);
    }
}

void k_fma_dest_run(double* dst, const double* src, const double* dw, const double* tw,
                    const double* e, const double* src_del, double w_del,
                    std::size_t cnt, std::size_t L) {
    const __m512d wdel = _mm512_set1_pd(w_del);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d ev = _mm512_loadu_pd(e + l);  // unused garbage when cnt == 0
        __m512d a = _mm512_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
            const __m512d sv = _mm512_loadu_pd(src + i * L + l);
            const __m512d wv =
                _mm512_add_pd(_mm512_set1_pd(dw[gi]), _mm512_mul_pd(_mm512_set1_pd(tw[gi]), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        if (src_del) a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_loadu_pd(src_del + l), wdel));
        _mm512_storeu_pd(dst + l, a);
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d ev = _mm512_maskz_loadu_pd(m, e + l);
        __m512d a = _mm512_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
            const __m512d sv = _mm512_maskz_loadu_pd(m, src + i * L + l);
            const __m512d wv =
                _mm512_add_pd(_mm512_set1_pd(dw[gi]), _mm512_mul_pd(_mm512_set1_pd(tw[gi]), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        if (src_del)
            a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_maskz_loadu_pd(m, src_del + l), wdel));
        _mm512_mask_storeu_pd(dst + l, m, a);
    }
}

void k_axpy_lanes(double* dst, const double* src, const double* w, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d d = _mm512_loadu_pd(dst + l);
        const __m512d s = _mm512_loadu_pd(src + l);
        _mm512_storeu_pd(dst + l,
                         _mm512_add_pd(d, _mm512_mul_pd(s, _mm512_loadu_pd(w + l))));
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d d = _mm512_maskz_loadu_pd(m, dst + l);
        const __m512d s = _mm512_maskz_loadu_pd(m, src + l);
        _mm512_mask_storeu_pd(
            dst + l, m,
            _mm512_add_pd(d, _mm512_mul_pd(s, _mm512_maskz_loadu_pd(m, w + l))));
    }
}

void k_fma_acc_run_pl(double* acc, const double* src, const double* dw, const double* tw,
                      const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        __m512d a = _mm512_loadu_pd(acc + l);
        for (std::size_t g = 0; g < runs; ++g) {  // g-ascending: unfused add order
            const __m512d sv = _mm512_loadu_pd(src + g * L + l);
            const __m512d ev = _mm512_loadu_pd(e + g * L + l);
            const __m512d wv = _mm512_add_pd(
                _mm512_loadu_pd(dw + g * L + l),
                _mm512_mul_pd(_mm512_loadu_pd(tw + g * L + l), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        _mm512_storeu_pd(acc + l, a);
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        __m512d a = _mm512_maskz_loadu_pd(m, acc + l);
        for (std::size_t g = 0; g < runs; ++g) {
            const __m512d sv = _mm512_maskz_loadu_pd(m, src + g * L + l);
            const __m512d ev = _mm512_maskz_loadu_pd(m, e + g * L + l);
            const __m512d wv = _mm512_add_pd(
                _mm512_maskz_loadu_pd(m, dw + g * L + l),
                _mm512_mul_pd(_mm512_maskz_loadu_pd(m, tw + g * L + l), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        _mm512_mask_storeu_pd(acc + l, m, a);
    }
}

void k_fma_dest_run_pl(double* dst, const double* src, const double* dw, const double* tw,
                       const double* e, const double* src_del, const double* w_del,
                       std::size_t cnt, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const __m512d ev = _mm512_loadu_pd(e + l);  // unused garbage when cnt == 0
        __m512d a = _mm512_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi =
                -static_cast<std::ptrdiff_t>(i * L) + static_cast<std::ptrdiff_t>(l);
            const __m512d sv = _mm512_loadu_pd(src + i * L + l);
            const __m512d wv = _mm512_add_pd(
                _mm512_loadu_pd(dw + gi), _mm512_mul_pd(_mm512_loadu_pd(tw + gi), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        if (src_del)
            a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_loadu_pd(src_del + l),
                                               _mm512_loadu_pd(w_del + l)));
        _mm512_storeu_pd(dst + l, a);
    }
    if (l < L) {
        const __mmask8 m = tail_mask(L - l);
        const __m512d ev = _mm512_maskz_loadu_pd(m, e + l);
        __m512d a = _mm512_setzero_pd();
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi =
                -static_cast<std::ptrdiff_t>(i * L) + static_cast<std::ptrdiff_t>(l);
            const __m512d sv = _mm512_maskz_loadu_pd(m, src + i * L + l);
            const __m512d wv = _mm512_add_pd(
                _mm512_maskz_loadu_pd(m, dw + gi),
                _mm512_mul_pd(_mm512_maskz_loadu_pd(m, tw + gi), ev));
            a = _mm512_add_pd(a, _mm512_mul_pd(sv, wv));
        }
        if (src_del)
            a = _mm512_add_pd(a, _mm512_mul_pd(_mm512_maskz_loadu_pd(m, src_del + l),
                                               _mm512_maskz_loadu_pd(m, w_del + l)));
        _mm512_mask_storeu_pd(dst + l, m, a);
    }
}

// ---------------------------------------------------------------------------
// Row kernels. Each walks the lane vectors of the row (full ones, then one
// masked tail) and, within a lane vector, the row's drift planes.
// ---------------------------------------------------------------------------

/// Loads and stores of one lane vector: full, or masked to the tail lanes.
template <bool kTail>
struct Lanes {
    __mmask8 m;
    [[nodiscard]] __m512d load(const double* p) const {
        if constexpr (kTail) return _mm512_maskz_loadu_pd(m, p);
        return _mm512_loadu_pd(p);
    }
    void store(double* p, __m512d v) const {
        if constexpr (kTail) _mm512_mask_storeu_pd(p, m, v);
        else _mm512_storeu_pd(p, v);
    }
    [[nodiscard]] __mmask8 sel(const std::uint8_t* p, std::size_t rem) const {
        if constexpr (kTail) return load_sel_tail(p, rem);
        return load_sel8(p);
    }
};

/// Run `body(lanes, l, rem)` over every lane vector of a row of L lanes.
template <typename Body>
void for_lane_vectors(std::size_t L, Body&& body) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) body(Lanes<false>{0xFF}, l, kW);
    if (l < L) body(Lanes<true>{tail_mask(L - l)}, l, L - l);
}

/// Zero the lanes whose drift position pos lies past their received
/// length, store the cell and add it into the running norm.
template <bool kTail>
inline void mask_store_norm(const Lanes<kTail>& io, double* c, __m512d a, __m512d lenv,
                            std::ptrdiff_t pos, __m512d& nrm) {
    const __mmask8 keep =
        _mm512_cmp_pd_mask(_mm512_set1_pd(static_cast<double>(pos)), lenv, _CMP_LE_OQ);
    a = _mm512_maskz_mov_pd(keep, a);
    io.store(c, a);
    nrm = _mm512_add_pd(nrm, a);
}

void k_select_lanes_row(double* ed, const std::uint8_t* sel, const double* e0,
                        const double* e1, std::size_t planes, std::size_t L) {
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t rem) {
        const __m512d a = io.load(e0 + l);
        const __m512d b = io.load(e1 + l);
        for (std::size_t p = 0; p < planes; ++p)
            io.store(ed + p * L + l, _mm512_mask_blend_pd(io.sel(sel + p * L + l, rem), a, b));
    });
}

void k_mask_norm_row(double* norm, double* cells, const double* len, std::ptrdiff_t pos0,
                     std::size_t planes, std::size_t L) {
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t) {
        const __m512d lenv = io.load(len + l);
        __m512d nrm = _mm512_setzero_pd();
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
        const __m512d n = io.load(norm + l);
        for (std::size_t p = 0; p < planes; ++p) {
            double* c = dst + p * L + l;
            io.store(c, _mm512_div_pd(io.load(c), n));
        }
    });
}

/// Destination columns per register block of the row propagation.
constexpr int kBlock = 4;

void k_fma_dest_row(double* cur, const double* prev, const double* dw, const double* tw,
                    const double* e, const double* len, double* norm, const RowSpan& s,
                    std::size_t L) {
    const auto P = [L](int d) { return plane(d, L); };
    const __m512d wdel = _mm512_set1_pd(dw[0]);
    // Interior: columns with a full insert run (cnt == run, g0 == run) and a
    // deletion source, so kBlock neighbours share one loop over the run.
    const int ilo = std::max(s.clo, s.plo + s.run - 1);
    const int ihi = std::min(s.chi, s.phi - 1);
    for_lane_vectors(L, [&](const auto& io, std::size_t l, std::size_t) {
        const __m512d lenv = io.load(len + l);
        __m512d nrm = _mm512_setzero_pd();
        const auto column = [&](int d) {  // fma_dest_run's cell, one column
            const DestColumn c = dest_column(s, d);
            __m512d a = _mm512_setzero_pd();
            if (c.cnt) {
                const __m512d ev = io.load(e + P(d) + l);
                const double* src = prev + P(c.dp_min) + l;
                for (std::size_t i = 0; i < c.cnt; ++i) {
                    const int g = c.g0 - static_cast<int>(i);
                    const __m512d wv = _mm512_add_pd(
                        _mm512_set1_pd(dw[g]), _mm512_mul_pd(_mm512_set1_pd(tw[g - 1]), ev));
                    a = _mm512_add_pd(a, _mm512_mul_pd(io.load(src + i * L), wv));
                }
            }
            if (c.del) a = _mm512_add_pd(a, _mm512_mul_pd(io.load(prev + P(d + 1) + l), wdel));
            mask_store_norm(io, cur + P(d) + l, a, lenv, s.row + d, nrm);
        };
        int d = s.clo;
        for (; d < ilo && d <= s.chi; ++d) column(d);
        for (; d + kBlock - 1 <= ihi; d += kBlock) {
            // Column d + c takes source d + c + 1 - run + i at run length
            // run - i: the same terms, in the same order, as column(d + c).
            __m512d ev[kBlock], a[kBlock];
            for (int c = 0; c < kBlock; ++c) {
                ev[c] = io.load(e + P(d + c) + l);
                a[c] = _mm512_setzero_pd();
            }
            const double* src = prev + P(d + 1 - s.run) + l;
            for (int i = 0; i < s.run; ++i) {
                const __m512d wd = _mm512_set1_pd(dw[s.run - i]);
                const __m512d wt = _mm512_set1_pd(tw[s.run - 1 - i]);
                const double* si = src + P(i);
                for (int c = 0; c < kBlock; ++c)
                    a[c] = _mm512_add_pd(
                        a[c], _mm512_mul_pd(io.load(si + P(c)),
                                            _mm512_add_pd(wd, _mm512_mul_pd(wt, ev[c]))));
            }
            for (int c = 0; c < kBlock; ++c) {
                a[c] = _mm512_add_pd(a[c],
                                     _mm512_mul_pd(io.load(prev + P(d + c + 1) + l), wdel));
                mask_store_norm(io, cur + P(d + c) + l, a[c], lenv, s.row + d + c, nrm);
            }
        }
        for (; d <= s.chi; ++d) column(d);
        io.store(norm + l, nrm);
    });
}

constexpr LaneKernels kAvx512Kernels = {
    k_axpy,         k_fma_weighted, k_accumulate,     k_maximum,     k_divide,
    k_select_const, k_select_lanes, k_fma_run,        k_fma_acc_run,
    k_fma_dest_run, k_axpy_lanes,   k_fma_acc_run_pl, k_fma_dest_run_pl,
    k_select_lanes_row, k_fma_dest_row, k_mask_norm_row, k_divide_row,
    "avx512",       kW,             util::SimdPath::avx512,
};

}  // namespace

const LaneKernels* lane_kernels_avx512() noexcept { return &kAvx512Kernels; }

}  // namespace ccap::info

#endif  // x86
