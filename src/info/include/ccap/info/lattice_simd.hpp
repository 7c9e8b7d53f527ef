// Runtime-dispatched SIMD lane kernels for the batched lattice engine.
//
// BatchLatticeEngine (batch_lattice.hpp) and the candidate-batched segment
// propagation (drift_hmm.cpp) spend essentially all of their time in
// loops over the lane dimension of their structure-of-arrays rows.
// Autovectorization of those loops tops out at the baseline ISA
// (SSE2 on x86-64: two doubles per op); this header names them as a
// function-pointer table with one hand-written implementation per
// instruction set — scalar, NEON, AVX2, AVX-512 — each compiled in its own
// translation unit with exactly its own -m flags (src/info/CMakeLists.txt)
// and selected once at startup by ccap::util::active_simd_path().
//
// The table holds two kinds of kernel. Per-column kernels work on one
// drift column (L lanes) per call. Row kernels (the *_row fields) work on
// a whole lattice row per call: every drift plane of the row's window, so
// a row of the shared-weight forward pass costs one dispatched call per
// stage (emission fill, propagation with the per-lane mask and the norm
// sum, divide) instead of four per column. The AVX2 and AVX-512 row
// propagation register-blocks its interior — several destination columns
// at once, each with its own accumulator — while every cell keeps
// fma_dest_run's exact source order; the scalar and NEON tables run the
// row kernels as plain loops over their per-column kernels.
//
// Bit-identity contract: every kernel is elementwise — lane l of the
// output depends only on lane l of the inputs, through the *same* IEEE-754
// operation sequence as the scalar reference loop. The vector TUs are
// compiled with -ffp-contract=off and use separate multiply/add intrinsics
// (never FMA), and the select kernels pick an exact table entry (their
// selector bytes are validated symbols in {0, 1}, for which the scalar
// arithmetic select e0*(1-s) + e1*s IS the selected entry bit for bit).
// Vectorizing across lanes, or blocking across columns, therefore changes
// no result: the dispatch matrix test (tests/info_simd_dispatch_test.cpp)
// asserts bit-identity of every path against the scalar LatticeEngine.
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

/// Drift geometry of one lattice row, for the row kernels: the destination
/// window [clo, chi], the previous row's band [plo, phi] (the sources),
/// the insert-run truncation `run`, and the row index `row`. Lane l keeps
/// its cell at drift d only when row + d <= len[l] — the received symbols
/// the cell has consumed exist in that lane.
struct RowSpan {
    int clo, chi, plo, phi, run;
    std::ptrdiff_t row;
};

/// Elementwise lane kernels. All pointers are non-null; `L` is the lane
/// count (any value — implementations handle non-multiple tails). Row
/// kernels address drift plane p of a row at p * L.
///
/// fma_weighted, maximum, fma_acc_run, axpy_lanes and fma_acc_run_pl have
/// no engine caller; fma_dest_run, accumulate and divide have none either
/// since the row kernels took over the shared-weight forward pass. They
/// stay, still bit-identity-tested per path, because the benchmark's
/// kernel harness (perfbench/kernels.cpp) binds every field.
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

    /// For p in [0, planes): ed[p*L + l] = sel[p*L + l] ? e1[l] : e0[l] —
    /// select_lanes over a row's drift planes, one lane-vector pair for all.
    void (*select_lanes_row)(double* ed, const std::uint8_t* sel, const double* e0,
                             const double* e1, std::size_t planes, std::size_t L);
    /// One row of the shared-weight forward pass. cur, prev and e point at
    /// the drift-0 plane of the current alpha row, the previous alpha row
    /// and the emission row; dw / tw are the run-indexed weight tables
    /// (DriftTables::del_w / tx_w, entries [0, run]). For d ascending in
    /// [clo, chi], with sources dp in [max(plo, d + 1 - run), min(phi, d)]:
    ///   a = fma_dest_run's cell (weights dw[g], tw[g - 1] at run length
    ///       g = d + 1 - dp, then the run-0 deletion src d + 1 times dw[0]
    ///       when d + 1 <= phi);
    ///   cur[d*L + l] = row + d <= len[l] ? a : 0.0;
    ///   norm[l] = sum of the stored cells, 0.0 first, d ascending.
    /// The emission planes must be readable over [clo, chi]; their values
    /// are used only at columns with a transmission source (d >= plo).
    void (*fma_dest_row)(double* cur, const double* prev, const double* dw,
                         const double* tw, const double* e, const double* len,
                         double* norm, const RowSpan& span, std::size_t L);
    /// The mask and norm of fma_dest_row alone, over planes already
    /// propagated: for p ascending in [0, planes), plane p sits at drift
    /// position pos0 + p (row + d); cells with pos0 + p > len[l] become
    /// 0.0, and norm[l] = the ascending sum of the planes, 0.0 first.
    void (*mask_norm_row)(double* norm, double* cells, const double* len,
                          std::ptrdiff_t pos0, std::size_t planes, std::size_t L);
    /// For p in [0, planes): dst[p*L + l] /= norm[l].
    void (*divide_row)(double* dst, const double* norm, std::size_t planes, std::size_t L);

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
