// NEON lane kernels (2 doubles per op), AArch64 only.
//
// Advanced SIMD is baseline on AArch64 so this TU needs no extra -m flags,
// but it is still compiled with -ffp-contract=off and uses separate
// vmulq/vaddq (never vfmaq) so each lane performs the scalar reference's
// exact IEEE-754 operation sequence.
#include "ccap/info/lattice_simd.hpp"
#include "lattice_rows.hpp"

#if defined(__aarch64__) || defined(_M_ARM64)

#include <arm_neon.h>

namespace ccap::info {

namespace {

constexpr std::size_t kW = 2;

/// Per-lane all-ones/all-zeros mask from two selector bytes.
inline uint64x2_t load_sel2(const std::uint8_t* sel) {
    const uint64x2_t v = {static_cast<std::uint64_t>(sel[0]),
                          static_cast<std::uint64_t>(sel[1])};
    return vtstq_u64(v, v);  // non-zero byte -> all-ones lane
}

void k_axpy(double* dst, const double* src, double w, std::size_t L) {
    const float64x2_t wv = vdupq_n_f64(w);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const float64x2_t d = vld1q_f64(dst + l);
        const float64x2_t s = vld1q_f64(src + l);
        vst1q_f64(dst + l, vaddq_f64(d, vmulq_f64(s, wv)));
    }
    for (; l < L; ++l) dst[l] += src[l] * w;
}

void k_fma_weighted(double* dst, const double* src, double dw, double tw, const double* e,
                    std::size_t L) {
    const float64x2_t dwv = vdupq_n_f64(dw);
    const float64x2_t twv = vdupq_n_f64(tw);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const float64x2_t ev = vld1q_f64(e + l);
        const float64x2_t wv = vaddq_f64(dwv, vmulq_f64(twv, ev));
        const float64x2_t d = vld1q_f64(dst + l);
        const float64x2_t s = vld1q_f64(src + l);
        vst1q_f64(dst + l, vaddq_f64(d, vmulq_f64(s, wv)));
    }
    for (; l < L; ++l) dst[l] += src[l] * (dw + tw * e[l]);
}

void k_accumulate(double* acc, const double* src, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        vst1q_f64(acc + l, vaddq_f64(vld1q_f64(acc + l), vld1q_f64(src + l)));
    }
    for (; l < L; ++l) acc[l] += src[l];
}

void k_maximum(double* acc, const double* src, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        vst1q_f64(acc + l, vmaxq_f64(vld1q_f64(acc + l), vld1q_f64(src + l)));
    }
    for (; l < L; ++l) acc[l] = acc[l] < src[l] ? src[l] : acc[l];
}

void k_divide(double* dst, const double* norm, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        vst1q_f64(dst + l, vdivq_f64(vld1q_f64(dst + l), vld1q_f64(norm + l)));
    }
    for (; l < L; ++l) dst[l] /= norm[l];
}

void k_select_const(double* ed, const std::uint8_t* sel, double v0, double v1,
                    std::size_t L) {
    const float64x2_t v0v = vdupq_n_f64(v0);
    const float64x2_t v1v = vdupq_n_f64(v1);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        vst1q_f64(ed + l, vbslq_f64(load_sel2(sel + l), v1v, v0v));
    }
    for (; l < L; ++l) ed[l] = sel[l] ? v1 : v0;
}

void k_select_lanes(double* ed, const std::uint8_t* sel, const double* e0, const double* e1,
                    std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        vst1q_f64(ed + l,
                  vbslq_f64(load_sel2(sel + l), vld1q_f64(e1 + l), vld1q_f64(e0 + l)));
    }
    for (; l < L; ++l) ed[l] = sel[l] ? e1[l] : e0[l];
}

void k_fma_run(double* dst, const double* src, const double* dw, const double* tw,
               const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const float64x2_t s = vld1q_f64(src + l);  // reused across the run
        for (std::size_t g = 0; g < runs; ++g) {
            double* d = dst + g * L + l;
            const float64x2_t ev = vld1q_f64(e + g * L + l);
            const float64x2_t wv =
                vaddq_f64(vdupq_n_f64(dw[g]), vmulq_f64(vdupq_n_f64(tw[g]), ev));
            vst1q_f64(d, vaddq_f64(vld1q_f64(d), vmulq_f64(s, wv)));
        }
    }
    for (; l < L; ++l)
        for (std::size_t g = 0; g < runs; ++g)
            dst[g * L + l] += src[l] * (dw[g] + tw[g] * e[g * L + l]);
}

void k_fma_acc_run(double* acc, const double* src, const double* dw, const double* tw,
                   const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        float64x2_t a = vld1q_f64(acc + l);
        for (std::size_t g = 0; g < runs; ++g) {  // g-ascending: unfused add order
            const float64x2_t sv = vld1q_f64(src + g * L + l);
            const float64x2_t ev = vld1q_f64(e + g * L + l);
            const float64x2_t wv =
                vaddq_f64(vdupq_n_f64(dw[g]), vmulq_f64(vdupq_n_f64(tw[g]), ev));
            a = vaddq_f64(a, vmulq_f64(sv, wv));
        }
        vst1q_f64(acc + l, a);
    }
    for (; l < L; ++l)
        for (std::size_t g = 0; g < runs; ++g)
            acc[l] += src[g * L + l] * (dw[g] + tw[g] * e[g * L + l]);
}

void k_fma_dest_run(double* dst, const double* src, const double* dw, const double* tw,
                    const double* e, const double* src_del, double w_del,
                    std::size_t cnt, std::size_t L) {
    const float64x2_t wdel = vdupq_n_f64(w_del);
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const float64x2_t ev = vld1q_f64(e + l);  // unused garbage when cnt == 0
        float64x2_t a = vdupq_n_f64(0.0);
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
            const float64x2_t sv = vld1q_f64(src + i * L + l);
            const float64x2_t wv =
                vaddq_f64(vdupq_n_f64(dw[gi]), vmulq_f64(vdupq_n_f64(tw[gi]), ev));
            a = vaddq_f64(a, vmulq_f64(sv, wv));
        }
        if (src_del) a = vaddq_f64(a, vmulq_f64(vld1q_f64(src_del + l), wdel));
        vst1q_f64(dst + l, a);
    }
    for (; l < L; ++l) {
        double a = 0.0;
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi = -static_cast<std::ptrdiff_t>(i);
            a += src[i * L + l] * (dw[gi] + tw[gi] * e[l]);
        }
        if (src_del) a += src_del[l] * w_del;
        dst[l] = a;
    }
}

void k_axpy_lanes(double* dst, const double* src, const double* w, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const float64x2_t d = vld1q_f64(dst + l);
        const float64x2_t s = vld1q_f64(src + l);
        vst1q_f64(dst + l, vaddq_f64(d, vmulq_f64(s, vld1q_f64(w + l))));
    }
    for (; l < L; ++l) dst[l] += src[l] * w[l];
}

void k_fma_acc_run_pl(double* acc, const double* src, const double* dw, const double* tw,
                      const double* e, std::size_t runs, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        float64x2_t a = vld1q_f64(acc + l);
        for (std::size_t g = 0; g < runs; ++g) {  // g-ascending: unfused add order
            const float64x2_t sv = vld1q_f64(src + g * L + l);
            const float64x2_t ev = vld1q_f64(e + g * L + l);
            const float64x2_t wv = vaddq_f64(
                vld1q_f64(dw + g * L + l), vmulq_f64(vld1q_f64(tw + g * L + l), ev));
            a = vaddq_f64(a, vmulq_f64(sv, wv));
        }
        vst1q_f64(acc + l, a);
    }
    for (; l < L; ++l)
        for (std::size_t g = 0; g < runs; ++g)
            acc[l] += src[g * L + l] * (dw[g * L + l] + tw[g * L + l] * e[g * L + l]);
}

void k_fma_dest_run_pl(double* dst, const double* src, const double* dw, const double* tw,
                       const double* e, const double* src_del, const double* w_del,
                       std::size_t cnt, std::size_t L) {
    std::size_t l = 0;
    for (; l + kW <= L; l += kW) {
        const float64x2_t ev = vld1q_f64(e + l);  // unused garbage when cnt == 0
        float64x2_t a = vdupq_n_f64(0.0);
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi =
                -static_cast<std::ptrdiff_t>(i * L) + static_cast<std::ptrdiff_t>(l);
            const float64x2_t sv = vld1q_f64(src + i * L + l);
            const float64x2_t wv =
                vaddq_f64(vld1q_f64(dw + gi), vmulq_f64(vld1q_f64(tw + gi), ev));
            a = vaddq_f64(a, vmulq_f64(sv, wv));
        }
        if (src_del)
            a = vaddq_f64(a, vmulq_f64(vld1q_f64(src_del + l), vld1q_f64(w_del + l)));
        vst1q_f64(dst + l, a);
    }
    for (; l < L; ++l) {
        double a = 0.0;
        for (std::size_t i = 0; i < cnt; ++i) {
            const std::ptrdiff_t gi =
                -static_cast<std::ptrdiff_t>(i * L) + static_cast<std::ptrdiff_t>(l);
            a += src[i * L + l] * (dw[gi] + tw[gi] * e[l]);
        }
        if (src_del) a += src_del[l] * w_del[l];
        dst[l] = a;
    }
}

constexpr LaneKernels kNeonKernels = {
    k_axpy,         k_fma_weighted, k_accumulate,     k_maximum,     k_divide,
    k_select_const, k_select_lanes, k_fma_run,        k_fma_acc_run,
    k_fma_dest_run, k_axpy_lanes,   k_fma_acc_run_pl, k_fma_dest_run_pl,
    loop_select_lanes_row<k_select_lanes>, loop_fma_dest_row<k_fma_dest_run>,
    loop_mask_norm_row, loop_divide_row<k_divide>,
    "neon",         kW,             util::SimdPath::neon,
};

}  // namespace

const LaneKernels* lane_kernels_neon() noexcept { return &kNeonKernels; }

}  // namespace ccap::info

#endif  // aarch64
