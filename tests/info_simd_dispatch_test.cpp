// Runtime SIMD dispatch (util/cpu_features.hpp, info/lattice_simd.hpp) and
// the per-path bit-identity matrix: every available kernel path — forced
// via force_simd_path(), the same hook the CCAP_SIMD env override uses —
// must reproduce the scalar LatticeEngine bit for bit.
//
// tests/CMakeLists.txt additionally registers this binary's BatchLattice*
// and SimdDispatch* suites once per ISA under CCAP_SIMD=<path>, so CI
// exercises the env-variable resolution end to end (unavailable paths
// clamp down gracefully).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/drift_hmm.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/info/lattice_simd.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/rng.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Rng;
using ccap::util::SimdPath;

using SymbolSpan = DriftHmm::SymbolSpan;

/// Restore the active path on scope exit so test order cannot leak a
/// forced path into unrelated tests.
struct PathGuard {
    SimdPath saved = ccap::util::active_simd_path();
    ~PathGuard() { ccap::util::force_simd_path(saved); }
};

std::vector<SimdPath> available_paths() {
    std::vector<SimdPath> out;
    for (SimdPath p : {SimdPath::scalar, SimdPath::neon, SimdPath::avx2, SimdPath::avx512})
        if (ccap::util::simd_path_available(p)) out.push_back(p);
    return out;
}

TEST(SimdDispatch, NamesAndWidthsRoundTrip) {
    for (SimdPath p : {SimdPath::scalar, SimdPath::neon, SimdPath::avx2, SimdPath::avx512}) {
        SimdPath parsed{};
        ASSERT_TRUE(ccap::util::parse_simd_path(ccap::util::simd_path_name(p), parsed));
        EXPECT_EQ(parsed, p);
    }
    SimdPath dummy = SimdPath::avx512;
    EXPECT_FALSE(ccap::util::parse_simd_path("sse9", dummy));
    EXPECT_EQ(dummy, SimdPath::avx512);  // untouched on failure
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::scalar), 1u);
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::neon), 2u);
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::avx2), 4u);
    EXPECT_EQ(ccap::util::simd_vector_doubles(SimdPath::avx512), 8u);
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndBestIsOrdered) {
    EXPECT_TRUE(ccap::util::cpu_supports(SimdPath::scalar));
    EXPECT_TRUE(ccap::util::simd_path_available(SimdPath::scalar));
    const SimdPath best = ccap::util::best_simd_path();
    EXPECT_TRUE(ccap::util::simd_path_available(best));
    // Nothing above best may be available (best is the maximum).
    for (int p = static_cast<int>(best) + 1; p <= static_cast<int>(SimdPath::avx512); ++p)
        EXPECT_FALSE(ccap::util::simd_path_available(static_cast<SimdPath>(p)));
    EXPECT_FALSE(ccap::util::cpu_feature_string().empty());
}

TEST(SimdDispatch, ForceClampsDownNeverUp) {
    PathGuard guard;
    // Forcing the widest request lands on the best available path.
    EXPECT_EQ(ccap::util::force_simd_path(SimdPath::avx512), ccap::util::best_simd_path());
    // Forcing scalar always honours the request exactly.
    EXPECT_EQ(ccap::util::force_simd_path(SimdPath::scalar), SimdPath::scalar);
    EXPECT_EQ(ccap::util::active_simd_path(), SimdPath::scalar);
    // A forced path is what the kernel registry then serves.
    EXPECT_EQ(active_lane_kernels().path, SimdPath::scalar);
}

TEST(SimdDispatch, KernelTableMatchesPathMetadata) {
    for (SimdPath p : available_paths()) {
        const LaneKernels& k = lane_kernels_for(p);
        EXPECT_EQ(k.path, p);
        EXPECT_EQ(k.vector_doubles, ccap::util::simd_vector_doubles(p));
        EXPECT_STREQ(k.name, ccap::util::simd_path_name(p));
    }
    // Unavailable paths fall back to the best available at-or-below table,
    // never nullptr.
    const LaneKernels& k = lane_kernels_for(SimdPath::avx512);
    EXPECT_TRUE(ccap::util::simd_path_available(k.path));
}

// ---------------------------------------------------------------------------
// Dispatch matrix: batched entry points vs the scalar engine, per path.
// ---------------------------------------------------------------------------

struct MatrixLanes {
    std::vector<std::vector<std::uint8_t>> tx, rx;
};

MatrixLanes make_lanes(const DriftParams& params, std::size_t n, std::size_t batch,
                       std::uint64_t seed) {
    MatrixLanes lanes;
    Rng rng(seed);
    for (std::size_t b = 0; b < batch; ++b) {
        std::vector<std::uint8_t> tx(n);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(params.alphabet));
        std::vector<std::uint8_t> rx = simulate_drift_channel(tx, params, rng);
        if (batch >= 3 && b == 1) rx.clear();  // dead-lane bookkeeping
        lanes.tx.push_back(std::move(tx));
        lanes.rx.push_back(std::move(rx));
    }
    return lanes;
}

std::vector<SymbolSpan> spans(const std::vector<std::vector<std::uint8_t>>& v) {
    std::vector<SymbolSpan> out;
    out.reserve(v.size());
    for (const auto& s : v) out.emplace_back(s);
    return out;
}

TEST(SimdDispatch, EveryPathBitIdenticalToScalarEngine) {
    PathGuard guard;
    const DriftParams params{0.12, 0.06, 0.03, 2, 10, 6};
    constexpr std::size_t kN = 48;
    // Batch sizes straddling every vector width, including ragged tails.
    for (const std::size_t batch : {1u, 3u, 5u, 9u, 16u}) {
        const MatrixLanes lanes = make_lanes(params, kN, batch, 7000 + batch);
        const auto tx = spans(lanes.tx);
        const auto rx = spans(lanes.rx);
        const DriftHmm hmm(params);

        // Scalar-engine reference evidences, computed once.
        std::vector<double> want(batch);
        {
            ScopedWorkspace ws;
            for (std::size_t l = 0; l < batch; ++l)
                want[l] = hmm.log2_likelihood(lanes.tx[l], lanes.rx[l], ws);
        }

        for (SimdPath p : available_paths()) {
            ASSERT_EQ(ccap::util::force_simd_path(p), p);
            ScopedWorkspace ws;
            const auto got = hmm.log2_likelihood_batch(tx, rx, ws);
            ASSERT_EQ(got.size(), batch);
            for (std::size_t l = 0; l < batch; ++l)
                EXPECT_EQ(got[l].log2_evidence, want[l])
                    << "path=" << ccap::util::simd_path_name(p) << " batch=" << batch
                    << " lane=" << l;
        }
    }
}

TEST(SimdDispatch, EveryPathPerLaneParamsBitIdenticalToScalarEngine) {
    // The per-lane-parameter batch (parameter planes + *_pl kernels) on
    // every available path, against each lane's own scalar engine.
    PathGuard guard;
    constexpr std::size_t kN = 40;
    std::vector<DriftParams> ps;
    for (std::size_t b = 0; b < 9; ++b)
        ps.push_back(DriftParams{0.03 + 0.04 * static_cast<double>(b),
                                 0.01 + 0.01 * static_cast<double>(b % 3),
                                 (b % 2) ? 0.02 : 0.0, 2, 10, 6});
    MatrixLanes lanes;
    Rng rng(31337);
    for (const DriftParams& p : ps) {
        std::vector<std::uint8_t> tx(kN);
        for (auto& s : tx) s = static_cast<std::uint8_t>(rng.uniform_below(p.alphabet));
        lanes.rx.push_back(simulate_drift_channel(tx, p, rng));
        lanes.tx.push_back(std::move(tx));
    }
    const auto tx = spans(lanes.tx);
    const auto rx = spans(lanes.rx);

    std::vector<double> want(ps.size());
    {
        ScopedWorkspace ws;
        for (std::size_t l = 0; l < ps.size(); ++l)
            want[l] = DriftHmm(ps[l]).log2_likelihood(lanes.tx[l], lanes.rx[l], ws);
    }
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        ScopedWorkspace ws;
        const auto got = log2_likelihood_batch_per_lane(ps, tx, rx, ws);
        ASSERT_EQ(got.size(), ps.size());
        for (std::size_t l = 0; l < ps.size(); ++l)
            EXPECT_EQ(got[l].log2_evidence, want[l])
                << "path=" << ccap::util::simd_path_name(p) << " lane=" << l;
    }
}

// ---------------------------------------------------------------------------
// Ragged masked tails: every kernel, every path, exact-size buffers.
// ---------------------------------------------------------------------------

// Exercises every LaneKernels entry on lane counts that are NOT multiples of
// any vector width, with buffers allocated to exactly the touched size — a
// tail that read or wrote one lane past L would trip ASan/UBSan in the
// sanitizer tier-1 stages and, for stores, corrupt the guard value checked
// below. Results must be bitwise those of the scalar reference kernels.
TEST(SimdDispatch, RaggedTailKernelsBitIdenticalToScalar) {
    const LaneKernels& ref = *lane_kernels_scalar();
    Rng rng(424242);
    constexpr std::size_t kRuns = 3;
    auto fill = [&rng](std::size_t n) {
        std::vector<double> v(n);
        for (auto& x : v) x = 0.25 + rng.uniform();  // positive: safe divisor
        return v;
    };
    for (SimdPath p : available_paths()) {
        const LaneKernels& k = lane_kernels_for(p);
        for (const std::size_t L : {1u, 2u, 3u, 5u, 6u, 7u, 9u, 11u, 13u}) {
            SCOPED_TRACE(std::string("path=") + k.name + " L=" + std::to_string(L));
            const std::vector<double> src = fill(kRuns * L);
            const std::vector<double> e = fill(kRuns * L);
            const std::vector<double> norm = fill(L);
            std::vector<std::uint8_t> sel(L);
            for (auto& s : sel) s = rng.bernoulli(0.5) ? 1 : 0;
            std::vector<double> dw = fill(kRuns), tw = fill(kRuns);

            auto a = fill(kRuns * L);
            auto b = a;
            k.axpy(a.data(), src.data(), 1.75, L);
            ref.axpy(b.data(), src.data(), 1.75, L);
            EXPECT_EQ(a, b);

            k.fma_weighted(a.data(), src.data(), dw[0], tw[0], e.data(), L);
            ref.fma_weighted(b.data(), src.data(), dw[0], tw[0], e.data(), L);
            EXPECT_EQ(a, b);

            k.accumulate(a.data(), src.data(), L);
            ref.accumulate(b.data(), src.data(), L);
            EXPECT_EQ(a, b);

            k.maximum(a.data(), src.data(), L);
            ref.maximum(b.data(), src.data(), L);
            EXPECT_EQ(a, b);

            k.divide(a.data(), norm.data(), L);
            ref.divide(b.data(), norm.data(), L);
            EXPECT_EQ(a, b);

            k.select_const(a.data(), sel.data(), 0.125, 0.875, L);
            ref.select_const(b.data(), sel.data(), 0.125, 0.875, L);
            EXPECT_EQ(a, b);

            k.select_lanes(a.data(), sel.data(), e.data(), src.data(), L);
            ref.select_lanes(b.data(), sel.data(), e.data(), src.data(), L);
            EXPECT_EQ(a, b);

            k.fma_run(a.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            ref.fma_run(b.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            EXPECT_EQ(a, b);

            k.fma_acc_run(a.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            ref.fma_acc_run(b.data(), src.data(), dw.data(), tw.data(), e.data(), kRuns, L);
            EXPECT_EQ(a, b);

            // fma_dest_run walks the weight arrays backward from the given
            // origin: pass the last element so indices [-cnt+1, 0] stay in
            // bounds. Cover cnt = 0 (pure-deletion only) through kRuns, with
            // and without the src_del term.
            for (std::size_t cnt : {std::size_t{0}, std::size_t{1}, kRuns}) {
                for (const double* del : {static_cast<const double*>(nullptr), norm.data()}) {
                    if (cnt == 0 && !del) continue;  // all-zero output either way
                    std::vector<double> da(L), db(L);
                    k.fma_dest_run(da.data(), src.data(), dw.data() + (kRuns - 1),
                                   tw.data() + (kRuns - 1), e.data(), del, 0.375, cnt, L);
                    ref.fma_dest_run(db.data(), src.data(), dw.data() + (kRuns - 1),
                                     tw.data() + (kRuns - 1), e.data(), del, 0.375, cnt, L);
                    EXPECT_EQ(da, db) << "cnt=" << cnt << " del=" << (del != nullptr);
                }
            }

            // Per-lane-weight variants (the parameter-plane engine mode):
            // dw/tw are [run][lane] planes instead of per-run scalars.
            const std::vector<double> dwp = fill(kRuns * L), twp = fill(kRuns * L);

            k.axpy_lanes(a.data(), src.data(), norm.data(), L);
            ref.axpy_lanes(b.data(), src.data(), norm.data(), L);
            EXPECT_EQ(a, b);

            k.fma_acc_run_pl(a.data(), src.data(), dwp.data(), twp.data(), e.data(),
                             kRuns, L);
            ref.fma_acc_run_pl(b.data(), src.data(), dwp.data(), twp.data(), e.data(),
                               kRuns, L);
            EXPECT_EQ(a, b);

            // fma_dest_run_pl walks the weight planes backward by whole
            // planes from the given origin: pass the last plane so offsets
            // [-(cnt-1)*L, 0] stay in bounds.
            for (std::size_t cnt : {std::size_t{0}, std::size_t{1}, kRuns}) {
                for (const double* del : {static_cast<const double*>(nullptr), norm.data()}) {
                    if (cnt == 0 && !del) continue;  // all-zero output either way
                    std::vector<double> da(L), db(L);
                    k.fma_dest_run_pl(da.data(), src.data(),
                                      dwp.data() + (kRuns - 1) * L,
                                      twp.data() + (kRuns - 1) * L, e.data(), del,
                                      twp.data(), cnt, L);
                    ref.fma_dest_run_pl(db.data(), src.data(),
                                        dwp.data() + (kRuns - 1) * L,
                                        twp.data() + (kRuns - 1) * L, e.data(), del,
                                        twp.data(), cnt, L);
                    EXPECT_EQ(da, db) << "pl cnt=" << cnt << " del=" << (del != nullptr);
                }
            }
        }
    }
}

// Sub-width batches must run unpadded (lane_stride == lanes): the masked
// tails make the dead padding lanes unnecessary, and the engine output must
// still match the scalar engine bit for bit.
TEST(SimdDispatch, TinyBatchesRunUnpaddedAndBitIdentical) {
    PathGuard guard;
    const DriftParams params{0.10, 0.05, 0.02, 2, 8, 5};
    const DriftHmm hmm(params);
    constexpr std::size_t kN = 40;
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        const std::size_t W = ccap::util::simd_vector_doubles(p);
        for (std::size_t batch = 2; batch < W; ++batch) {
            const MatrixLanes lanes = make_lanes(params, kN, batch, 5100 + batch);
            const auto rx = spans(lanes.rx);
            ScopedWorkspace ws;
            BatchLatticeEngine eng(params, hmm.tables(), rx, kN, ws.get());
            // The whole point of the masked tails: no dead padding lanes.
            EXPECT_EQ(eng.lane_stride(), batch)
                << "path=" << ccap::util::simd_path_name(p);
            const auto got = hmm.log2_likelihood_batch(spans(lanes.tx), rx, ws);
            for (std::size_t l = 0; l < batch; ++l) {
                ScopedWorkspace ref_ws;
                EXPECT_EQ(got[l].log2_evidence,
                          hmm.log2_likelihood(lanes.tx[l], lanes.rx[l], ref_ws))
                    << "path=" << ccap::util::simd_path_name(p) << " batch=" << batch
                    << " lane=" << l;
            }
        }
    }
}

TEST(SimdDispatch, ResolvedMcBatchRespectsVectorWidth) {
    PathGuard guard;
    const DriftParams params{0.05, 0.03, 0.01, 2, 16, 8};
    McOptions opts;
    opts.num_blocks = 64;
    for (SimdPath p : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(p), p);
        const std::size_t b = resolved_mc_batch(opts, params);
        const std::size_t W = ccap::util::simd_vector_doubles(p);
        EXPECT_GE(b, 1u);
        EXPECT_EQ(b % W, 0u) << "auto tile not a multiple of the vector width, path="
                             << ccap::util::simd_path_name(p);
        EXPECT_LE(b, opts.num_blocks);
        // Clamped to the round, which is never below two blocks; a zero
        // num_blocks (a lane-count target) is not clamped.
        McOptions small = opts;
        small.num_blocks = 1;
        EXPECT_EQ(resolved_mc_batch(small, params), std::min<std::size_t>(b, 2));
        small.num_blocks = 0;
        EXPECT_EQ(resolved_mc_batch(small, params), b);
    }
}

}  // namespace
