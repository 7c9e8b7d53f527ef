// Runtime-dispatched SIMD lane kernels for the batched lattice engine.
//
// BatchLatticeEngine (batch_lattice.hpp) and the candidate-batched segment
// propagation (drift_hmm.cpp) spend essentially all of their time in seven
// elementwise loops over the lane dimension of their structure-of-arrays
// rows (plus two fused insert-run sweeps over several such rows at once).
// Autovectorization of those loops tops out at the baseline ISA
// (SSE2 on x86-64: two doubles per op); this header names them as a
// function-pointer table with one hand-written implementation per
// instruction set — scalar, NEON, AVX2, AVX-512 — each compiled in its own
// translation unit with exactly its own -m flags (src/info/CMakeLists.txt)
// and selected once at startup by ccap::util::active_simd_path().
//
// Bit-identity contract: every kernel is elementwise — lane l of the
// output depends only on lane l of the inputs, through the *same* IEEE-754
// operation sequence as the scalar reference loop. The vector TUs are
// compiled with -ffp-contract=off and use separate multiply/add intrinsics
// (never FMA), and the two select kernels pick an exact table entry (their
// selector bytes are validated symbols in {0, 1}, for which the scalar
// arithmetic select e0*(1-s) + e1*s IS the selected entry bit for bit).
// Vectorizing across lanes therefore changes no result: the dispatch
// matrix test (tests/info_simd_dispatch_test.cpp) asserts bit-identity of
// every path against the scalar LatticeEngine.
//
// Callers with lane counts >= vector_doubles pad to a multiple of it and
// align the backing arenas (lattice_engine.hpp), so the hot calls run full
// vectors only. Ragged tails — sub-width batches and unpadded result rows
// — are handled inside every kernel: the AVX2/AVX-512 TUs finish them with
// one masked vector op (no reads or writes past L, so a row may end flush
// against the end of an allocation), the scalar/NEON TUs with a scalar
// loop; both orders are elementwise and bit-identical.
#pragma once

#include <cstddef>
#include <cstdint>

#include "ccap/util/cpu_features.hpp"

namespace ccap::info {

/// Elementwise lane kernels. All pointers are non-null; `L` is the lane
/// count (any value — implementations handle non-multiple tails).
///
/// fma_weighted, maximum, fma_acc_run, axpy_lanes and fma_acc_run_pl have
/// no engine caller. They stay, still bit-identity-tested per path, because the
/// benchmark's kernel harness (perfbench/kernels.cpp) binds every field.
struct LaneKernels {
    /// dst[l] += src[l] * w
    void (*axpy)(double* dst, const double* src, double w, std::size_t L);
    /// dst[l] += src[l] * (dw + tw * e[l])
    void (*fma_weighted)(double* dst, const double* src, double dw, double tw,
                         const double* e, std::size_t L);
    /// acc[l] += src[l]
    void (*accumulate)(double* acc, const double* src, std::size_t L);
    /// acc[l] = max(acc[l], src[l])   (non-negative finite inputs)
    void (*maximum)(double* acc, const double* src, std::size_t L);
    /// dst[l] /= norm[l]
    void (*divide)(double* dst, const double* norm, std::size_t L);
    /// ed[l] = sel[l] ? v1 : v0        (selector bytes in {0, 1})
    void (*select_const)(double* ed, const std::uint8_t* sel, double v0, double v1,
                         std::size_t L);
    /// ed[l] = sel[l] ? e1[l] : e0[l]  (selector bytes in {0, 1})
    void (*select_lanes)(double* ed, const std::uint8_t* sel, const double* e0,
                         const double* e1, std::size_t L);
    /// For g in [0, runs): dst[g*L + l] += src[l] * (dw[g] + tw[g] * e[g*L + l]).
    /// The forward insert-run sweep fused into one call: one source row
    /// scattered into `runs` consecutive destination planes, so src stays in
    /// registers across the run instead of being reloaded per fma_weighted
    /// call. Each destination cell is touched exactly once — per-lane results
    /// are bitwise those of `runs` separate fma_weighted calls.
    void (*fma_run)(double* dst, const double* src, const double* dw, const double* tw,
                    const double* e, std::size_t runs, std::size_t L);
    /// For g ascending in [0, runs): acc[l] += src[g*L + l] * (dw[g] + tw[g] * e[g*L + l]).
    /// The gather-form insert-run sweep fused: `runs` source planes gathered
    /// into one accumulator row (acc stays in registers). The per-lane add
    /// order is g-ascending, exactly the unfused call sequence.
    void (*fma_acc_run)(double* acc, const double* src, const double* dw,
                        const double* tw, const double* e, std::size_t runs,
                        std::size_t L);
    /// Destination-major forward propagation of ONE destination column:
    ///   a[l] = 0; for i in [0, cnt): a[l] += src[i*L + l] * (dw[-i] + tw[-i] * e[l]);
    ///   if (src_del) a[l] += src_del[l] * w_del;  dst[l] = a[l];
    /// Source planes ascend while the weight arrays are walked BACKWARD from
    /// their given origin (an ascending source drift reaches a fixed
    /// destination with a descending insert-run length); the optional
    /// src_del term is the run-0 pure-deletion contribution from the
    /// next-higher drift, which carries no emission factor and lands last —
    /// the exact source order (and hence bitwise result) of the scatter
    /// formulation, with the accumulator held in registers and a single
    /// store per cell. `e` must be readable for L doubles even when cnt is 0
    /// (the values are only consumed when cnt > 0).
    void (*fma_dest_run)(double* dst, const double* src, const double* dw,
                         const double* tw, const double* e, const double* src_del,
                         double w_del, std::size_t cnt, std::size_t L);
    /// dst[l] += src[l] * w[l] — axpy with a per-lane weight row (each lane
    /// carries its own channel's weight).
    void (*axpy_lanes)(double* dst, const double* src, const double* w, std::size_t L);
    /// Per-lane-weight fma_acc_run: the weight arrays are [run][lane]
    /// planes with the same stride L as the data rows. For g ascending in
    /// [0, runs): acc[l] += src[g*L + l] * (dw[g*L + l] + tw[g*L + l] * e[g*L + l]).
    /// Identical operation sequence to fma_acc_run when every lane of a
    /// weight plane holds the same value.
    void (*fma_acc_run_pl)(double* acc, const double* src, const double* dw,
                           const double* tw, const double* e, std::size_t runs,
                           std::size_t L);
    /// Per-lane-weight fma_dest_run: dw/tw are [run][lane] planes walked
    /// BACKWARD by whole planes from their given origin, and the run-0
    /// deletion weight is a per-lane row:
    ///   a[l] = 0; for i in [0, cnt): a[l] += src[i*L + l] * (dw[-i*L + l]
    ///                                        + tw[-i*L + l] * e[l]);
    ///   if (src_del) a[l] += src_del[l] * w_del[l];  dst[l] = a[l];
    /// Same contracts as fma_dest_run otherwise (`e` readable for L doubles
    /// even at cnt == 0; each destination cell stored exactly once).
    void (*fma_dest_run_pl)(double* dst, const double* src, const double* dw,
                            const double* tw, const double* e, const double* src_del,
                            const double* w_del, std::size_t cnt, std::size_t L);

    const char* name;            ///< "scalar" | "neon" | "avx2" | "avx512"
    std::size_t vector_doubles;  ///< lanes per vector op (1/2/4/8)
    util::SimdPath path;
};

/// The per-ISA tables. A table whose translation unit was not compiled for
/// this target returns nullptr (the build defines CCAP_HAVE_KERNELS_* so
/// util::simd_path_available() and these stay consistent).
[[nodiscard]] const LaneKernels* lane_kernels_scalar() noexcept;
[[nodiscard]] const LaneKernels* lane_kernels_neon() noexcept;
[[nodiscard]] const LaneKernels* lane_kernels_avx2() noexcept;
[[nodiscard]] const LaneKernels* lane_kernels_avx512() noexcept;

/// Table for `path`, falling back to the best compiled path at or below it
/// (never nullptr — scalar always exists).
[[nodiscard]] const LaneKernels& lane_kernels_for(util::SimdPath path) noexcept;

/// Table for util::active_simd_path() — what the engines actually run.
[[nodiscard]] const LaneKernels& active_lane_kernels() noexcept;

}  // namespace ccap::info
