// Determinism contract of the parallel Monte-Carlo estimators: the same
// root seed must produce bit-identical MiEstimate values for every thread
// count (per-block substream seeding + in-order folding, McOptions docs).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/info/lattice_engine.hpp"
#include "ccap/util/cpu_features.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/stats.hpp"

namespace {

using namespace ccap::info;
using ccap::util::Rng;

void expect_bit_identical(const MiEstimate& a, const MiEstimate& b) {
    EXPECT_EQ(a.rate, b.rate);  // exact, not NEAR: bit-identical by contract
    EXPECT_EQ(a.sem, b.sem);
    EXPECT_EQ(a.blocks, b.blocks);
    EXPECT_EQ(a.block_len, b.block_len);
    EXPECT_EQ(a.converged, b.converged);
}

TEST(ParallelMcDeterminism, IidRateInvariantInThreadCount) {
    const DriftParams p{0.15, 0.05, 0.02, 2, 32, 8};
    McOptions opts;
    opts.block_len = 48;
    opts.num_blocks = 12;

    opts.threads = 1;
    Rng serial_rng(0xC0FFEE);
    const MiEstimate serial = iid_mutual_information_rate(p, opts, serial_rng);
    EXPECT_GT(serial.rate, 0.0);

    for (unsigned threads : {2U, 8U}) {
        opts.threads = threads;
        Rng rng(0xC0FFEE);
        expect_bit_identical(serial, iid_mutual_information_rate(p, opts, rng));
    }
}

TEST(ParallelMcDeterminism, MarkovRateInvariantInThreadCount) {
    const DriftParams p{0.2, 0.0, 0.0, 2, 32, 8};
    const MarkovSource src = MarkovSource::binary_repeat(0.8);
    McOptions opts;
    opts.block_len = 40;
    opts.num_blocks = 10;

    opts.threads = 1;
    Rng serial_rng(0xBEEF);
    const MiEstimate serial = markov_mutual_information_rate(p, src, opts, serial_rng);
    EXPECT_GT(serial.rate, 0.0);

    for (unsigned threads : {2U, 8U}) {
        opts.threads = threads;
        Rng rng(0xBEEF);
        expect_bit_identical(serial, markov_mutual_information_rate(p, src, opts, rng));
    }
}

TEST(ParallelMcDeterminism, ConsumesExactlyOneDrawFromCallerRng) {
    // The root-seed split is part of the API contract: downstream draws
    // from the caller's generator must not depend on num_blocks/threads.
    const DriftParams p{0.1, 0.0, 0.0, 2, 24, 8};
    Rng a(7), b(7);
    (void)iid_mutual_information_rate(p, {16, 2, 1}, a);
    (void)iid_mutual_information_rate(p, {64, 9, 4}, b);
    EXPECT_EQ(a.next(), b.next());
}

TEST(ParallelMcDeterminism, RepeatedCallsWithSameRngDiffer) {
    // Successive calls advance the caller's generator, so estimates are
    // independent samples, not copies.
    const DriftParams p{0.1, 0.0, 0.0, 2, 24, 8};
    Rng rng(11);
    const MiEstimate first = iid_mutual_information_rate(p, {32, 6, 2}, rng);
    const MiEstimate second = iid_mutual_information_rate(p, {32, 6, 2}, rng);
    EXPECT_NE(first.rate, second.rate);
}

// ---------------------------------------------------------------------------
// Scalar per-block reference, from public API only: block b runs on
// substream b of the root, every evidence is one scalar lattice pass (no
// length memo, no lockstep tile), and the samples fold in block order.
// The estimators must reproduce it bit for bit at every thread count, tile
// width and SIMD path.
// ---------------------------------------------------------------------------

/// Samples of blocks [b0, b0 + out.size()) with iid uniform inputs
/// (source == nullptr) or Markov inputs.
void reference_samples(const DriftHmm& hmm, const DriftParams& params,
                       const ccap::util::Matrix& priors, const MarkovSource* source,
                       std::size_t block_len, std::uint64_t root, std::size_t b0,
                       std::span<double> out) {
    const unsigned m = params.alphabet;
    LatticeWorkspace ws;
    const auto sample = [&](double log_cond, double log_marg) {
        return (std::isfinite(log_cond) && std::isfinite(log_marg))
                   ? (log_cond - log_marg) / static_cast<double>(block_len)
                   : 0.0;
    };
    const auto draw = [&](std::size_t b, std::vector<std::uint8_t>& tx) {
        Rng block_rng(ccap::util::substream_seed(root, b));
        if (source) {
            tx = simulate_markov_source(*source, m, block_len, block_rng);
        } else {
            tx.resize(block_len);
            for (auto& s : tx) s = static_cast<std::uint8_t>(block_rng.uniform_below(m));
        }
        return simulate_drift_channel(tx, params, block_rng);
    };
    const auto marginal = [&](std::span<const std::uint8_t> rx) {
        return source ? hmm.log2_markov_marginal(*source, block_len, rx, ws)
                      : hmm.log2_prior_marginal(priors, rx, ws);
    };
    std::vector<std::uint8_t> tx;
    for (std::size_t i = 0; i < out.size(); ++i) {
        const std::vector<std::uint8_t> rx = draw(b0 + i, tx);
        out[i] = sample(hmm.log2_likelihood(tx, rx, ws), marginal(rx));
    }
}

/// Reference for one point: the estimators' round loop, stopping at the
/// first round boundary whose SEM meets the target.
MiEstimate reference_estimate(const DriftParams& params, const MarkovSource* source,
                              const McOptions& opts, std::uint64_t seed) {
    const DriftHmm hmm(params);
    const ccap::util::Matrix priors(opts.block_len, params.alphabet,
                                    1.0 / static_cast<double>(params.alphabet));
    const std::uint64_t root = Rng(seed).next();
    const bool adaptive = opts.target_sem > 0.0;
    const std::size_t cap = mc_block_cap(opts);
    const std::size_t round = mc_round_blocks(opts);
    ccap::util::CompensatedStats stats;
    std::size_t spent = 0;
    bool converged = !adaptive;
    while (spent < cap) {
        std::vector<double> samples(std::min(cap, spent + (adaptive ? round : cap)) - spent);
        reference_samples(hmm, params, priors, source, opts.block_len, root, spent, samples);
        for (double v : samples) stats.add(v);
        spent += samples.size();
        if (adaptive && stats.sem() <= opts.target_sem) {
            converged = true;
            break;
        }
    }
    return {std::max(0.0, stats.mean()), stats.sem(), spent, opts.block_len, converged};
}

/// The library estimate of one point, iid or Markov.
MiEstimate library_estimate(const DriftParams& params, const MarkovSource* source,
                            const McOptions& opts, std::uint64_t seed) {
    Rng rng(seed);
    return source ? markov_mutual_information_rate(params, *source, opts, rng)
                  : iid_mutual_information_rate(params, opts, rng);
}

struct PathGuard {
    ccap::util::SimdPath saved = ccap::util::active_simd_path();
    ~PathGuard() { ccap::util::force_simd_path(saved); }
};

std::vector<ccap::util::SimdPath> available_paths() {
    using ccap::util::SimdPath;
    std::vector<SimdPath> out;
    for (SimdPath p : {SimdPath::scalar, SimdPath::neon, SimdPath::avx2, SimdPath::avx512})
        if (ccap::util::simd_path_available(p)) out.push_back(p);
    return out;
}

/// Every SIMD path (so the auto tile width varies) x threads 1 and nproc x
/// fixed and adaptive mode: the library estimate must equal the scalar
/// reference bit for bit. `fixed` has a ragged final tile at every path's
/// tile width; `adaptive` gets its rounds from the same options.
void expect_reference_on_every_path(const DriftParams& params, const MarkovSource* source,
                                    const McOptions& fixed, const McOptions& adaptive,
                                    std::uint64_t seed) {
    PathGuard guard;
    const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
    for (ccap::util::SimdPath path : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(path), path);
        for (McOptions opts : {fixed, adaptive}) {
            const MiEstimate want = reference_estimate(params, source, opts, seed);
            EXPECT_GT(want.rate, 0.0);
            for (unsigned threads : {1U, nproc}) {
                SCOPED_TRACE(::testing::Message()
                             << "path " << ccap::util::simd_path_name(path) << " lanes "
                             << resolved_mc_batch(opts, params) << " target "
                             << opts.target_sem << " threads " << threads);
                opts.threads = threads;
                expect_bit_identical(library_estimate(params, source, opts, seed), want);
            }
        }
    }
}

TEST(ParallelMcDeterminism, IidRateInvariantInBatch) {
    // The tile width (resolved_mc_batch) follows the SIMD path: at
    // max_drift 32 it is 16 lanes on AVX-512, 20 on AVX2 and NEON, 21 on
    // scalar. Lockstep tiles are a layout transform, not a numerics change,
    // so every path must reproduce the scalar per-block reference; 45
    // blocks leave a ragged final tile at each width.
    const DriftParams p{0.15, 0.05, 0.02, 2, 32, 8};
    McOptions fixed;
    fixed.block_len = 48;
    fixed.num_blocks = 45;
    McOptions adaptive = fixed;
    adaptive.num_blocks = 11;
    adaptive.target_sem = 0.02;
    adaptive.max_blocks = 45;
    expect_reference_on_every_path(p, nullptr, fixed, adaptive, 0xC0FFEE);
}

TEST(ParallelMcDeterminism, MarkovRateInvariantInBatch) {
    // Markov inputs ride the same tile loop; their joint (drift, symbol)
    // marginal stays one scalar pass per lane.
    const DriftParams p{0.2, 0.0, 0.01, 2, 32, 8};
    const MarkovSource src = MarkovSource::binary_repeat(0.8);
    McOptions fixed;
    fixed.block_len = 40;
    fixed.num_blocks = 45;
    McOptions adaptive = fixed;
    adaptive.num_blocks = 7;
    adaptive.target_sem = 0.02;
    adaptive.max_blocks = 45;
    expect_reference_on_every_path(p, &src, fixed, adaptive, 0xBEEF);
}

TEST(ParallelMcDeterminism, LengthMemoBitIdenticalToFullMarginalPasses) {
    // Binary channels take the memo; the P_i = 0.6 point pushes received
    // lengths past the memo's range, so uncached lanes ride the tile pass.
    // The quaternary points' prior emission sums round alike for every
    // symbol (memo); the ternary point's do not (full passes).
    const DriftParams params[] = {
        {0.12, 0.04, 0.02, 2, 24, 6},
        {0.3, 0.1, 0.0, 2, 16, 6},
        {0.05, 0.6, 0.01, 2, 24, 6},
        {0.1, 0.05, 0.0, 4, 24, 6},
        {0.1, 0.05, 0.03, 4, 24, 6},
        {0.1, 0.05, 0.02, 3, 24, 6},
    };
    const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
    PathGuard guard;
    for (ccap::util::SimdPath path : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(path), path);
        for (double target_sem : {0.0, 0.02}) {
            McOptions opts;
            opts.block_len = 32;
            opts.num_blocks = 10;
            opts.target_sem = target_sem;
            opts.max_blocks = 90;
            std::vector<CapacityPoint> pts;
            for (std::size_t k = 0; k < std::size(params); ++k)
                pts.push_back({params[k], 0x3E30 + k});
            for (unsigned threads : {1U, nproc}) {
                opts.threads = threads;
                const std::vector<MiEstimate> got = iid_mutual_information_rate_points(pts, opts);
                ASSERT_EQ(got.size(), pts.size());
                for (std::size_t k = 0; k < pts.size(); ++k) {
                    SCOPED_TRACE(::testing::Message()
                                 << "point " << k << " path " << ccap::util::simd_path_name(path)
                                 << " target " << target_sem << " threads " << threads);
                    const MiEstimate want =
                        reference_estimate(pts[k].params, nullptr, opts, pts[k].seed);
                    expect_bit_identical(got[k], want);
                    expect_bit_identical(
                        library_estimate(pts[k].params, nullptr, opts, pts[k].seed), want);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parameterized threads x tile-width matrix. A tile never holds more lanes
// than a round has blocks (resolved_mc_batch clamps to mc_round_blocks), so
// rounds of b blocks (at least 2) run tiles of min(auto, max(2, b)) lanes:
// b = 1, W - 1, W and 4W. The target is out of reach, so the rounds run to
// the cap of 4W + 3 blocks, leaving a ragged final round and tile. Every
// case must equal the serial scalar reference. Runs under the tier-1 TSan
// stage via the ParallelMc name filter.
// ---------------------------------------------------------------------------

struct TileCase {
    unsigned threads;
    std::size_t round;  ///< McOptions::num_blocks: blocks per adaptive round
};

std::vector<TileCase> tile_cases() {
    const std::size_t W =
        ccap::util::simd_vector_doubles(ccap::util::active_simd_path());
    std::vector<std::size_t> rounds{1};
    for (std::size_t b : {W - 1, W, 4 * W})
        if (b >= 1 && std::find(rounds.begin(), rounds.end(), b) == rounds.end())
            rounds.push_back(b);
    std::vector<TileCase> cases;
    for (unsigned t : {1U, 2U, 4U, 8U})
        for (std::size_t b : rounds) cases.push_back({t, b});
    return cases;
}

class ParallelMcTileInvariance : public ::testing::TestWithParam<TileCase> {
protected:
    static McOptions options() {
        McOptions opts;
        opts.block_len = 32;
        opts.num_blocks = GetParam().round;
        opts.target_sem = 1e-12;
        opts.max_blocks =
            4 * ccap::util::simd_vector_doubles(ccap::util::active_simd_path()) + 3;
        opts.threads = GetParam().threads;
        return opts;
    }
};

TEST_P(ParallelMcTileInvariance, IidBitIdenticalToSerialScalar) {
    const DriftParams p{0.12, 0.04, 0.02, 2, 24, 6};
    const McOptions opts = options();
    const MiEstimate want = reference_estimate(p, nullptr, opts, 0xFEED5EED);
    EXPECT_GT(want.rate, 0.0);
    EXPECT_EQ(want.blocks, opts.max_blocks);
    expect_bit_identical(library_estimate(p, nullptr, opts, 0xFEED5EED), want);
}

TEST_P(ParallelMcTileInvariance, MarkovBitIdenticalToSerialScalar) {
    const DriftParams p{0.15, 0.02, 0.01, 2, 24, 6};
    const MarkovSource src = MarkovSource::binary_repeat(0.75);
    const McOptions opts = options();
    const MiEstimate want = reference_estimate(p, &src, opts, 0xD15EA5E);
    EXPECT_GT(want.rate, 0.0);
    EXPECT_EQ(want.blocks, opts.max_blocks);
    expect_bit_identical(library_estimate(p, &src, opts, 0xD15EA5E), want);
}

INSTANTIATE_TEST_SUITE_P(
    Tile, ParallelMcTileInvariance, ::testing::ValuesIn(tile_cases()),
    [](const ::testing::TestParamInfo<TileCase>& info) {
        return "t" + std::to_string(info.param.threads) + "_b" +
               std::to_string(info.param.round);
    });

// ---------------------------------------------------------------------------
// Adaptive early stopping (McOptions::target_sem). The data-dependent
// stopping time must itself be a pure function of the root seed — the same
// blocks spent, and the same bits out, at every thread count and tile
// width. Suite names start with ParallelMc so the tier-1 TSan stage covers
// the concurrent round loop.
// ---------------------------------------------------------------------------

TEST(ParallelMcAdaptive, TargetZeroIsFixedModeExactly) {
    // target_sem = 0 must reproduce the historical fixed-block behavior bit
    // for bit; max_blocks is documented as ignored there.
    const DriftParams p{0.15, 0.05, 0.02, 2, 32, 8};
    McOptions fixed;
    fixed.block_len = 48;
    fixed.num_blocks = 12;
    fixed.threads = 2;
    Rng a(0xC0FFEE);
    const MiEstimate baseline = iid_mutual_information_rate(p, fixed, a);
    EXPECT_TRUE(baseline.converged);
    EXPECT_EQ(baseline.blocks, fixed.num_blocks);

    McOptions opts = fixed;
    opts.target_sem = 0.0;
    opts.max_blocks = 7;  // ignored in fixed mode
    Rng b(0xC0FFEE);
    expect_bit_identical(baseline, iid_mutual_information_rate(p, opts, b));
}

TEST(ParallelMcAdaptive, ConvergedMeetsTargetAndSpendsWholeRounds) {
    const DriftParams p{0.1, 0.02, 0.0, 2, 24, 6};
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 8;  // round size in adaptive mode
    opts.target_sem = 0.02;
    opts.threads = 2;
    Rng rng(123);
    const MiEstimate est = iid_mutual_information_rate(p, opts, rng);
    ASSERT_TRUE(est.converged);
    EXPECT_LE(est.sem, opts.target_sem);
    EXPECT_GE(est.blocks, mc_round_blocks(opts));
    EXPECT_LE(est.blocks, mc_block_cap(opts));
    EXPECT_EQ(est.blocks % mc_round_blocks(opts), 0u);
}

TEST(ParallelMcAdaptive, ZeroVarianceChannelStopsAfterPilotRound) {
    // A noiseless channel scores every block exactly 1 bit/use: the SEM is
    // identically 0 after the pilot round, so the driver must stop there.
    const DriftParams p{0.0, 0.0, 0.0, 2, 24, 6};
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;
    opts.target_sem = 1e-6;
    Rng rng(5);
    const MiEstimate est = iid_mutual_information_rate(p, opts, rng);
    EXPECT_TRUE(est.converged);
    EXPECT_EQ(est.blocks, mc_round_blocks(opts));
    EXPECT_NEAR(est.rate, 1.0, 1e-9);
    EXPECT_LE(est.sem, opts.target_sem);
}

TEST(ParallelMcAdaptive, BlockCapBoundsSpendAndClearsConverged) {
    // An unreachable target must stop at mc_block_cap with converged=false,
    // never loop.
    const DriftParams p{0.2, 0.05, 0.02, 2, 24, 6};
    McOptions opts;
    opts.block_len = 24;
    opts.num_blocks = 4;
    opts.target_sem = 1e-12;
    opts.max_blocks = 20;
    Rng rng(9);
    const MiEstimate est = iid_mutual_information_rate(p, opts, rng);
    EXPECT_FALSE(est.converged);
    EXPECT_EQ(est.blocks, mc_block_cap(opts));
    EXPECT_EQ(est.blocks, 20u);
}

struct AdaptiveCase {
    unsigned threads;
    /// Blocks per round; 0 keeps the test's own round size, 1 runs rounds
    /// of two blocks on two-lane tiles (the mc_round_blocks floor).
    std::size_t round;
};

class ParallelMcAdaptiveInvariance : public ::testing::TestWithParam<AdaptiveCase> {
protected:
    static void set_round(McOptions& opts) {
        if (GetParam().round != 0) opts.num_blocks = GetParam().round;
        opts.threads = GetParam().threads;
    }
};

TEST_P(ParallelMcAdaptiveInvariance, IidStoppingTimeBitIdenticalToSerialScalar) {
    // Heterogeneous enough that the stop happens after several rounds; the
    // spent count (not just the value) must match the serial scalar
    // reference.
    const DriftParams p{0.18, 0.04, 0.02, 2, 24, 6};
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;
    opts.target_sem = 0.015;
    opts.max_blocks = 96;
    set_round(opts);
    const MiEstimate want = reference_estimate(p, nullptr, opts, 0xADA97);
    EXPECT_GT(want.blocks, mc_round_blocks(opts));  // took > 1 round
    expect_bit_identical(library_estimate(p, nullptr, opts, 0xADA97), want);
}

TEST_P(ParallelMcAdaptiveInvariance, MarkovStoppingTimeBitIdenticalToSerialScalar) {
    const DriftParams p{0.2, 0.0, 0.01, 2, 24, 6};
    const MarkovSource src = MarkovSource::binary_repeat(0.7);
    McOptions opts;
    opts.block_len = 28;
    opts.num_blocks = 5;
    opts.target_sem = 0.02;
    opts.max_blocks = 80;
    set_round(opts);
    const MiEstimate want = reference_estimate(p, &src, opts, 0xADA98);
    EXPECT_GT(want.blocks, mc_round_blocks(opts));
    expect_bit_identical(library_estimate(p, &src, opts, 0xADA98), want);
}

INSTANTIATE_TEST_SUITE_P(
    Adaptive, ParallelMcAdaptiveInvariance,
    ::testing::Values(AdaptiveCase{1, 1}, AdaptiveCase{1, 0}, AdaptiveCase{8, 1},
                      AdaptiveCase{8, 0}),
    [](const ::testing::TestParamInfo<AdaptiveCase>& info) {
        return "t" + std::to_string(info.param.threads) + "_b" +
               std::to_string(info.param.round);
    });

// ---------------------------------------------------------------------------
// Independent-streams point sweeps (iid_mutual_information_rate_points with
// point_tile = 0): every point is the standalone estimator on its own seed.
// ---------------------------------------------------------------------------

std::vector<CapacityPoint> heterogeneous_points() {
    // Low-noise points converge almost immediately; the noisy ones need
    // many more blocks.
    std::vector<CapacityPoint> pts;
    std::uint64_t seed = 1000;
    for (double pd : {0.02, 0.1, 0.25, 0.4})
        pts.push_back({DriftParams{pd, 0.02, 0.0, 2, 24, 6}, seed++});
    return pts;
}

TEST(ParallelMcAdaptivePoints, EachPointMatchesStandaloneFixedRun) {
    // out[i] must be bit-identical to a standalone fixed-mode evaluation of
    // the same point over the same spent count.
    const std::vector<CapacityPoint> pts = heterogeneous_points();
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;
    opts.target_sem = 0.02;
    opts.max_blocks = 120;
    const std::vector<MiEstimate> out = iid_mutual_information_rate_points(pts, opts);
    ASSERT_EQ(out.size(), pts.size());
    for (std::size_t i = 0; i < pts.size(); ++i) {
        McOptions fixed = opts;
        fixed.target_sem = 0.0;
        fixed.num_blocks = out[i].blocks;
        fixed.threads = 1;
        Rng rng(pts[i].seed);
        const MiEstimate standalone =
            iid_mutual_information_rate(pts[i].params, fixed, rng);
        EXPECT_EQ(out[i].rate, standalone.rate) << "point " << i;
        EXPECT_EQ(out[i].sem, standalone.sem) << "point " << i;
        EXPECT_EQ(out[i].blocks, standalone.blocks) << "point " << i;
    }
}

/// heterogeneous_points() plus point 0 of the length-memo test, and the
/// adaptive options that memo test runs at target 0.02.
std::vector<CapacityPoint> stopping_points() {
    std::vector<CapacityPoint> pts = heterogeneous_points();
    pts.push_back({DriftParams{0.12, 0.04, 0.02, 2, 24, 6}, 0x3E30});
    return pts;
}

McOptions stopping_options() {
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 10;
    opts.target_sem = 0.02;
    opts.max_blocks = 90;
    return opts;
}

TEST(ParallelMcAdaptivePoints, EachPointIsTheStandaloneEstimator) {
    // The same value, spent count and converged flag as the standalone
    // estimator on the point's seed, in fixed and adaptive mode, at every
    // thread count.
    const std::vector<CapacityPoint> pts = stopping_points();
    McOptions fixed = stopping_options();
    fixed.target_sem = 0.0;
    const unsigned nproc = std::max(1U, std::thread::hardware_concurrency());
    for (McOptions opts : {fixed, stopping_options()})
        for (unsigned threads : {1U, nproc}) {
            opts.threads = threads;
            const std::vector<MiEstimate> out = iid_mutual_information_rate_points(pts, opts);
            ASSERT_EQ(out.size(), pts.size());
            for (std::size_t i = 0; i < pts.size(); ++i) {
                SCOPED_TRACE(::testing::Message() << "point " << i << " target "
                                                  << opts.target_sem << " threads " << threads);
                Rng rng(pts[i].seed);
                expect_bit_identical(out[i], iid_mutual_information_rate(pts[i].params, opts, rng));
            }
        }
}

TEST(ParallelMcAdaptivePoints, StopsAtFirstRoundMeetingTarget) {
    // A converged point that spent more than one round was still above the
    // target one round earlier. Its SEM there is that of a fixed run over
    // the first blocks - round blocks of the same seed.
    const std::vector<CapacityPoint> pts = stopping_points();
    const McOptions opts = stopping_options();
    const std::size_t round = mc_round_blocks(opts);
    const std::vector<MiEstimate> out = iid_mutual_information_rate_points(pts, opts);
    ASSERT_EQ(out.size(), pts.size());
    bool multi_round = false;
    for (std::size_t i = 0; i < pts.size(); ++i) {
        if (!out[i].converged || out[i].blocks <= round) continue;
        multi_round = true;
        McOptions earlier = opts;
        earlier.target_sem = 0.0;
        earlier.num_blocks = out[i].blocks - round;
        Rng rng(pts[i].seed);
        EXPECT_GT(iid_mutual_information_rate(pts[i].params, earlier, rng).sem, opts.target_sem)
            << "point " << i << " spent " << out[i].blocks;
    }
    EXPECT_TRUE(multi_round);
}

TEST(ParallelMcAdaptivePoints, SpendFollowsVariance) {
    // Blocks go where the per-block variance is. The stopping rule spends ~ (sd / target)^2 per point, so the
    // realized per-block sd (sem * sqrt(blocks)) of the biggest spender
    // must dominate the smallest spender's — and a heterogeneous grid must
    // actually produce differentiated spends.
    const std::vector<CapacityPoint> pts = heterogeneous_points();
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;
    opts.target_sem = 0.015;
    opts.max_blocks = 240;
    const std::vector<MiEstimate> out = iid_mutual_information_rate_points(pts, opts);
    const auto sd = [](const MiEstimate& e) {
        return e.sem * std::sqrt(static_cast<double>(e.blocks));
    };
    const auto [lo, hi] = std::minmax_element(
        out.begin(), out.end(),
        [](const MiEstimate& a, const MiEstimate& b) { return a.blocks < b.blocks; });
    EXPECT_GT(hi->blocks, lo->blocks);
    EXPECT_GE(sd(*hi), sd(*lo));
    for (const MiEstimate& e : out) {
        if (e.converged) {
            EXPECT_LE(e.sem, opts.target_sem);
        }
    }
}

TEST(ParallelMcAdaptivePoints, ThreadCountDoesNotChangeSpentCountsOrBits) {
    const std::vector<CapacityPoint> pts = heterogeneous_points();
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;
    opts.target_sem = 0.02;
    opts.max_blocks = 120;

    opts.threads = 1;
    const std::vector<MiEstimate> serial = iid_mutual_information_rate_points(pts, opts);
    for (unsigned threads : {2U, 8U}) {
        opts.threads = threads;
        const std::vector<MiEstimate> par = iid_mutual_information_rate_points(pts, opts);
        ASSERT_EQ(par.size(), serial.size());
        for (std::size_t i = 0; i < serial.size(); ++i)
            expect_bit_identical(serial[i], par[i]);
    }
}

TEST(ParallelMcAdaptivePoints, TinyTargetSemClampsDeficitToCap) {
    // A target no run can reach (1e-11, 1e-200) must spend exactly the
    // cap, report the point unconverged, and leave UBSan silent.
    const std::vector<CapacityPoint> pts{{DriftParams{0.2, 0.05, 0.02, 2, 16, 6}, 77}};
    for (double target : {1e-11, 1e-200}) {
        McOptions opts;
        opts.block_len = 16;
        opts.num_blocks = 4;
        opts.target_sem = target;
        opts.max_blocks = 40;
        const std::vector<MiEstimate> out = iid_mutual_information_rate_points(pts, opts);
        ASSERT_EQ(out.size(), 1u);
        EXPECT_EQ(out[0].blocks, mc_block_cap(opts)) << "target " << target;
        EXPECT_EQ(out[0].blocks, 40u);
        EXPECT_FALSE(out[0].converged) << "target " << target;
    }
}

TEST(ParallelMcAdaptivePoints, FixedModeUnchangedByNewFields) {
    // target_sem = 0 keeps the per-point standalone semantics bit for bit,
    // whatever the adaptive knobs say, and reports the independent
    // combination of adjacent SEMs.
    const std::vector<CapacityPoint> pts = heterogeneous_points();
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;
    PointSweepReport report;
    const std::vector<MiEstimate> plain =
        iid_mutual_information_rate_points(pts, opts, &report);
    McOptions decorated = opts;
    decorated.max_blocks = 17;
    const std::vector<MiEstimate> with = iid_mutual_information_rate_points(pts, decorated);
    ASSERT_EQ(plain.size(), with.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        expect_bit_identical(plain[i], with[i]);
        EXPECT_TRUE(plain[i].converged);
        EXPECT_EQ(plain[i].blocks, opts.num_blocks);
    }
    EXPECT_EQ(report.point_tile, 0u);
    ASSERT_EQ(report.adjacent_diff_sem.size(), pts.size() - 1);
    for (std::size_t i = 0; i + 1 < plain.size(); ++i)
        EXPECT_EQ(report.adjacent_diff_sem[i],
                  std::sqrt(plain[i].sem * plain[i].sem + plain[i + 1].sem * plain[i + 1].sem))
            << "pair " << i;
    for (std::size_t i = 0; i < plain.size(); ++i) {
        Rng rng(pts[i].seed);
        McOptions inner = opts;
        inner.threads = 1;
        expect_bit_identical(plain[i],
                             iid_mutual_information_rate(pts[i].params, inner, rng));
    }
}

// ---------------------------------------------------------------------------
// Common-random-numbers point tiling (McOptions::point_tile): whole grid
// tiles ride one per-lane-parameter sweep off a shared per-block variate
// tape. Suite names start with ParallelMc so the tier-1 TSan stage covers
// the tiled sweep loop.
// ---------------------------------------------------------------------------

std::vector<CapacityPoint> crn_strip(std::size_t n) {
    // A pd-ascending strip with shared lattice structure. Only the first
    // point's seed matters in CRN mode (it roots the tape); distinct seeds
    // keep the independent baseline honest.
    std::vector<CapacityPoint> pts;
    for (std::size_t i = 0; i < n; ++i)
        pts.push_back({DriftParams{0.03 + 0.05 * static_cast<double>(i), 0.02, 0.0, 2,
                                   24, 6},
                       2000 + i});
    return pts;
}

TEST(ParallelMcCrnPoints, ResolvedPointTilePolicy) {
    McOptions opts;
    EXPECT_EQ(resolved_point_tile(opts, 16), 0u);  // default: independent mode
    opts.point_tile = 6;
    EXPECT_EQ(resolved_point_tile(opts, 16), 6u);
    EXPECT_EQ(resolved_point_tile(opts, 4), 4u);  // clamped to the grid
    EXPECT_EQ(resolved_point_tile(opts, 0), 0u);
    opts.point_tile = kMcPointTileAuto;
    const std::size_t W =
        ccap::util::simd_vector_doubles(ccap::util::active_simd_path());
    const std::size_t g = resolved_point_tile(opts, 1000);
    EXPECT_GE(g, std::max<std::size_t>(W, 8));
    EXPECT_EQ(g % W, 0u);
    EXPECT_EQ(resolved_point_tile(opts, 3), 3u);  // tiny grid: masked tail
}

TEST(ParallelMcCrnPoints, FixedModeBitIdenticalAcrossThreadsBatchAndTile) {
    // The per-(block, point) sample is a pure function of the tape root and
    // the point's parameters, so the estimates must not depend on how the
    // grid is grouped into tiles, how blocks are chunked (the lane budget
    // follows the SIMD path), or who runs them.
    const std::vector<CapacityPoint> pts = crn_strip(7);
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 9;
    opts.point_tile = 4;
    opts.threads = 1;
    const std::vector<MiEstimate> base = iid_mutual_information_rate_points(pts, opts);
    ASSERT_EQ(base.size(), pts.size());
    for (const MiEstimate& e : base) {
        EXPECT_GT(e.rate, 0.0);
        EXPECT_TRUE(e.converged);
        EXPECT_EQ(e.blocks, opts.num_blocks);
    }
    PathGuard guard;
    for (ccap::util::SimdPath path : available_paths()) {
        ASSERT_EQ(ccap::util::force_simd_path(path), path);
        for (unsigned threads : {2U, 8U})
            for (std::size_t tile :
                 {std::size_t{1}, std::size_t{3}, std::size_t{7}, kMcPointTileAuto}) {
                McOptions alt = opts;
                alt.threads = threads;
                alt.point_tile = tile;
                const std::vector<MiEstimate> out =
                    iid_mutual_information_rate_points(pts, alt);
                ASSERT_EQ(out.size(), base.size());
                for (std::size_t i = 0; i < base.size(); ++i)
                    expect_bit_identical(base[i], out[i]);
            }
    }
}

TEST(ParallelMcCrnPoints, AdaptiveStoppingBitIdenticalAcrossThreadsAndTile) {
    // Round-synchronous stopping reads each point's own fold, so the spent
    // counts — not just the values — are thread- and tile-invariant.
    const std::vector<CapacityPoint> pts = crn_strip(5);
    McOptions opts;
    opts.block_len = 32;
    opts.num_blocks = 6;  // round size in adaptive mode
    opts.target_sem = 0.015;
    opts.max_blocks = 96;
    opts.point_tile = 5;
    opts.threads = 1;
    const std::vector<MiEstimate> base = iid_mutual_information_rate_points(pts, opts);
    bool multi_round = false;
    for (const MiEstimate& e : base) {
        EXPECT_EQ(e.blocks % mc_round_blocks(opts), 0u);
        if (e.blocks > mc_round_blocks(opts)) multi_round = true;
        if (e.converged) {
            EXPECT_LE(e.sem, opts.target_sem);
        }
    }
    EXPECT_TRUE(multi_round);  // the strip is heterogeneous enough
    for (unsigned threads : {4U, 8U})
        for (std::size_t tile : {std::size_t{2}, std::size_t{5}}) {
            McOptions alt = opts;
            alt.threads = threads;
            alt.point_tile = tile;
            const std::vector<MiEstimate> out =
                iid_mutual_information_rate_points(pts, alt);
            ASSERT_EQ(out.size(), base.size());
            for (std::size_t i = 0; i < base.size(); ++i)
                expect_bit_identical(base[i], out[i]);
        }
}

TEST(ParallelMcCrnPoints, MeansMatchIndependentEstimates) {
    // Marginal-law preservation: the CRN estimate and the independent
    // estimate sample the same quantity, so they must agree within joint
    // error bars (5 sigma keeps the flake rate negligible).
    const std::vector<CapacityPoint> pts = crn_strip(6);
    McOptions opts;
    opts.block_len = 48;
    opts.num_blocks = 48;
    opts.threads = 4;
    const std::vector<MiEstimate> indep = iid_mutual_information_rate_points(pts, opts);
    McOptions crn = opts;
    crn.point_tile = kMcPointTileAuto;
    const std::vector<MiEstimate> tiled = iid_mutual_information_rate_points(pts, crn);
    for (std::size_t i = 0; i < pts.size(); ++i) {
        const double joint =
            std::sqrt(indep[i].sem * indep[i].sem + tiled[i].sem * tiled[i].sem);
        EXPECT_NEAR(tiled[i].rate, indep[i].rate, 5.0 * joint + 1e-12) << "point " << i;
    }
}

TEST(ParallelMcCrnPoints, CrnShrinksAdjacentDifferenceSem) {
    // The coupling's whole point: adjacent points interpret most shared
    // variates identically, so their per-block samples are positively
    // correlated and differences lose variance relative to independent
    // sampling (whose report entries are the root-sum-square fallback).
    const std::vector<CapacityPoint> pts = crn_strip(6);
    McOptions opts;
    opts.block_len = 48;
    opts.num_blocks = 48;
    opts.threads = 4;
    PointSweepReport indep;
    (void)iid_mutual_information_rate_points(pts, opts, &indep);
    EXPECT_EQ(indep.point_tile, 0u);
    ASSERT_EQ(indep.adjacent_diff_sem.size(), pts.size() - 1);

    McOptions crn_opts = opts;
    crn_opts.point_tile = pts.size();
    PointSweepReport crn;
    (void)iid_mutual_information_rate_points(pts, crn_opts, &crn);
    EXPECT_EQ(crn.point_tile, pts.size());
    ASSERT_EQ(crn.adjacent_diff_sem.size(), pts.size() - 1);

    double crn_sum = 0.0, indep_sum = 0.0;
    for (std::size_t i = 0; i + 1 < pts.size(); ++i) {
        crn_sum += crn.adjacent_diff_sem[i];
        indep_sum += indep.adjacent_diff_sem[i];
    }
    EXPECT_LT(crn_sum, indep_sum);
}

TEST(ParallelMcCrnPoints, TinyGridStaysUnpaddedAndExact) {
    // points x blocks below one vector width: the sweep rides the masked
    // tail (sub-width batches are unpadded) and must be bit-identical to a
    // one-lane evaluation of the same tape.
    const std::vector<CapacityPoint> pts = crn_strip(2);
    McOptions opts;
    opts.block_len = 24;
    opts.num_blocks = 1;
    opts.point_tile = kMcPointTileAuto;  // resolves to 2: clamped to the grid
    EXPECT_EQ(resolved_point_tile(opts, pts.size()), 2u);
    opts.threads = 1;
    const std::vector<MiEstimate> both = iid_mutual_information_rate_points(pts, opts);
    McOptions one = opts;
    one.point_tile = 1;  // one point per sweep: single-lane scalar path
    const std::vector<MiEstimate> single = iid_mutual_information_rate_points(pts, one);
    ASSERT_EQ(both.size(), single.size());
    for (std::size_t i = 0; i < pts.size(); ++i)
        expect_bit_identical(both[i], single[i]);
}

TEST(ParallelMcCrnPoints, RejectsStructurallyHeterogeneousGrids) {
    // The tape and the per-lane sweep both assume one lattice shape; mixing
    // shapes must fail loudly, not silently decouple.
    std::vector<CapacityPoint> pts = crn_strip(3);
    pts[2].params.max_drift = 32;
    McOptions opts;
    opts.block_len = 16;
    opts.num_blocks = 2;
    opts.point_tile = 2;
    EXPECT_THROW((void)iid_mutual_information_rate_points(pts, opts),
                 std::invalid_argument);
}

}  // namespace
