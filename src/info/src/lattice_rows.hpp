// Row-kernel building blocks shared by the lane-kernel translation units
// (lattice_simd.hpp). Everything here has internal linkage: each kernel TU
// is compiled with its own ISA flags, and an external inline function
// emitted by two of them could resolve, at link time, to the copy built
// with the wider instruction set.
//
// The loops below are the reference semantics of the row fields, written
// as plain loops over a table's per-column kernels. The scalar table uses
// them over its scalar kernels, the NEON table over its vector ones; the
// AVX2 and AVX-512 tables bring their own register-blocked versions and
// share only dest_column and plane.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "ccap/info/lattice_simd.hpp"

namespace ccap::info {
namespace {  // internal linkage: see the header comment

/// Sources of destination column d in a row: `cnt` insert-run planes from
/// dp_min up, paired with run lengths walked down from g0, and the run-0
/// deletion from d + 1 when that drift lies in the previous band.
struct DestColumn {
    int dp_min;
    int g0;
    std::size_t cnt;
    bool del;
};

[[maybe_unused]] inline DestColumn dest_column(const RowSpan& s, int d) noexcept {
    const int dp_min = std::max(s.plo, d + 1 - s.run);
    const int dp_max = std::min(s.phi, d);
    const std::size_t cnt =
        dp_max >= dp_min ? static_cast<std::size_t>(dp_max - dp_min + 1) : 0;
    return {dp_min, cnt ? d + 1 - dp_min : 1, cnt, d + 1 <= s.phi};
}

/// Offset of drift plane d from the drift-0 plane of a row with L lanes.
[[maybe_unused]] inline std::ptrdiff_t plane(int d, std::size_t L) noexcept {
    return static_cast<std::ptrdiff_t>(d) * static_cast<std::ptrdiff_t>(L);
}

/// Mask one plane at drift position pos and add it into norm.
[[maybe_unused]] inline void mask_norm_plane(double* __restrict norm, double* __restrict c,
                                             const double* __restrict len, double pos,
                                             std::size_t L) {
    for (std::size_t l = 0; l < L; ++l) {
        if (pos > len[l]) c[l] = 0.0;
        norm[l] += c[l];
    }
}

[[maybe_unused]] void loop_mask_norm_row(double* norm, double* cells, const double* len,
                                         std::ptrdiff_t pos0, std::size_t planes,
                                         std::size_t L) {
    for (std::size_t l = 0; l < L; ++l) norm[l] = 0.0;
    for (std::size_t p = 0; p < planes; ++p)
        mask_norm_plane(norm, cells + p * L, len,
                        static_cast<double>(pos0 + static_cast<std::ptrdiff_t>(p)), L);
}

template <auto SelectLanes>
void loop_select_lanes_row(double* ed, const std::uint8_t* sel, const double* e0,
                           const double* e1, std::size_t planes, std::size_t L) {
    for (std::size_t p = 0; p < planes; ++p) SelectLanes(ed + p * L, sel + p * L, e0, e1, L);
}

template <auto Divide>
void loop_divide_row(double* dst, const double* norm, std::size_t planes, std::size_t L) {
    for (std::size_t p = 0; p < planes; ++p) Divide(dst + p * L, norm, L);
}

template <auto FmaDestRun>
void loop_fma_dest_row(double* cur, const double* prev, const double* dw, const double* tw,
                       const double* e, const double* len, double* norm, const RowSpan& s,
                       std::size_t L) {
    for (std::size_t l = 0; l < L; ++l) norm[l] = 0.0;
    for (int d = s.clo; d <= s.chi; ++d) {
        const DestColumn c = dest_column(s, d);
        double* cell = cur + plane(d, L);
        FmaDestRun(cell, prev + plane(c.dp_min, L), dw + c.g0, tw + (c.g0 - 1),
                   e + plane(d, L), c.del ? prev + plane(d + 1, L) : nullptr, dw[0], c.cnt,
                   L);
        mask_norm_plane(norm, cell, len, static_cast<double>(s.row + d), L);
    }
}

}  // namespace
}  // namespace ccap::info
