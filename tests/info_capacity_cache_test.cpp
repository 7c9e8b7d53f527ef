#include "ccap/info/capacity_cache.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccap/util/rng.hpp"

namespace {

using ccap::info::CapacityCache;
using ccap::info::CapacityGridSpec;
using ccap::info::CapacityKey;
using ccap::info::MiEstimate;

CapacityCache::Config small_config(bool enabled = true) {
    CapacityCache::Config cfg;
    cfg.grid = {0.05, 0.05, 0.30, 0.15};
    cfg.base.max_drift = 8;
    cfg.base.max_insert_run = 4;
    cfg.mc.block_len = 24;
    cfg.mc.num_blocks = 4;
    cfg.mc.threads = 1;
    cfg.enabled = enabled;
    return cfg;
}

TEST(CapacityCacheTest, RejectsDegenerateGrids) {
    CapacityCache::Config cfg = small_config();
    cfg.grid.pd_step = 0.0;
    EXPECT_THROW(CapacityCache{cfg}, std::invalid_argument);
    cfg = small_config();
    cfg.grid.pd_max = 0.7;
    cfg.grid.pi_max = 0.3;  // pd + pi reaches 1 at the extreme node
    EXPECT_THROW(CapacityCache{cfg}, std::invalid_argument);
}

TEST(CapacityCacheTest, RejectsGridStepsWhoseIndexRangeOverflowsInt32) {
    // floor(max / step) must fit the int32 CapacityKey; a step this fine
    // used to overflow the conversion and surface as a bogus parameter error.
    for (const bool pd_axis : {true, false}) {
        CapacityCache::Config cfg = small_config();
        (pd_axis ? cfg.grid.pd_step : cfg.grid.pi_step) = 1e-300;
        try {
            CapacityCache cache(cfg);
            ADD_FAILURE() << "expected std::invalid_argument";
        } catch (const std::invalid_argument& e) {
            EXPECT_NE(std::string(e.what()).find(pd_axis ? "grid step pd_step"
                                                         : "grid step pi_step"),
                      std::string::npos)
                << e.what();
        }
    }
    // A fine step whose index range still fits is accepted.
    CapacityCache::Config cfg = small_config();
    cfg.grid.pd_step = 1e-9;
    EXPECT_NO_THROW(CapacityCache{cfg});
}

TEST(CapacityCacheTest, QuantizeClampsHugeValuesBeforeConverting) {
    CapacityCache cache(small_config());
    constexpr double kInf = std::numeric_limits<double>::infinity();
    EXPECT_EQ(cache.quantize(1e300, kInf), (CapacityKey{6, 3}));
    EXPECT_EQ(cache.quantize(std::numeric_limits<double>::max(), 1e20), (CapacityKey{6, 3}));
}

TEST(CapacityCacheTest, QuantizeSnapsToNearestNodeAndClamps) {
    CapacityCache cache(small_config());
    EXPECT_EQ(cache.quantize(0.0, 0.0), (CapacityKey{0, 0}));
    EXPECT_EQ(cache.quantize(0.049, 0.051), (CapacityKey{1, 1}));
    EXPECT_EQ(cache.quantize(0.074, 0.026), (CapacityKey{1, 1}));
    EXPECT_EQ(cache.quantize(0.076, 0.0), (CapacityKey{2, 0}));
    // Out-of-grid values clamp to the extreme node.
    EXPECT_EQ(cache.quantize(0.9, 0.9), (CapacityKey{6, 3}));
    EXPECT_EQ(cache.quantize(-0.1, -0.1), (CapacityKey{0, 0}));
}

TEST(CapacityCacheTest, NodeParamsInheritBaseAndGrid) {
    CapacityCache::Config cfg = small_config();
    cfg.base.p_s = 0.01;
    CapacityCache cache(cfg);
    const auto p = cache.node_params({2, 1});
    EXPECT_DOUBLE_EQ(p.p_d, 0.10);
    EXPECT_DOUBLE_EQ(p.p_i, 0.05);
    EXPECT_DOUBLE_EQ(p.p_s, 0.01);
    EXPECT_EQ(p.max_drift, cfg.base.max_drift);
}

TEST(CapacityCacheTest, NodeSeedIsPureFunctionOfKey) {
    CapacityCache a(small_config());
    CapacityCache b(small_config());
    EXPECT_EQ(a.node_seed({3, 2}), b.node_seed({3, 2}));
    EXPECT_NE(a.node_seed({3, 2}), a.node_seed({2, 3}));

    CapacityCache::Config other = small_config();
    other.seed = 42;
    CapacityCache c(other);
    EXPECT_NE(a.node_seed({3, 2}), c.node_seed({3, 2}));
}

TEST(CapacityCacheTest, CachedAndUncachedValuesAreBitIdentical) {
    CapacityCache cached(small_config(true));
    CapacityCache uncached(small_config(false));
    for (const CapacityKey key : {CapacityKey{0, 0}, CapacityKey{2, 1}, CapacityKey{6, 3}}) {
        const MiEstimate c = cached.at(key);
        const MiEstimate u = uncached.at(key);
        EXPECT_EQ(c.rate, u.rate);
        EXPECT_EQ(c.sem, u.sem);
        EXPECT_EQ(c.blocks, u.blocks);
        // Second cached read returns the memoized value exactly.
        const MiEstimate again = cached.at(key);
        EXPECT_EQ(c.rate, again.rate);
    }
    EXPECT_GT(cached.stats().hits, 0u);
    EXPECT_EQ(uncached.stats().hits, 0u);
    EXPECT_EQ(uncached.stats().entries, 0u);
}

TEST(CapacityCacheTest, EnsureWarmsAllKeysForExactHits) {
    CapacityCache cache(small_config());
    const std::vector<CapacityKey> keys = {{0, 0}, {1, 0}, {0, 1}, {1, 1}, {1, 1}, {0, 0}};
    cache.ensure(keys, 2);
    EXPECT_EQ(cache.stats().entries, 4u);
    const auto misses_after_warm = cache.stats().misses;
    (void)cache.at({1, 1});
    (void)cache.at({0, 1});
    EXPECT_EQ(cache.stats().misses, misses_after_warm);  // pure hits
}

TEST(CapacityCacheTest, EnsureMatchesSerialAt) {
    CapacityCache warm(small_config());
    const std::vector<CapacityKey> keys = {{0, 0}, {2, 1}, {4, 2}};
    warm.ensure(keys, 4);

    CapacityCache serial(small_config());
    for (const CapacityKey& k : keys) {
        EXPECT_EQ(warm.at(k).rate, serial.at(k).rate);
        EXPECT_EQ(warm.at(k).sem, serial.at(k).sem);
    }
}

TEST(CapacityCacheTest, CrnNodeValuesIndependentOfWarmBatchComposition) {
    // In CRN mode node_mc_options() pins the shared-tape root to the
    // config seed, so a node's value is a pure function of (config, key):
    // warming it alone, warming it in a bulk batch, and a cache-off
    // recompute must all agree bit for bit.
    CapacityCache::Config cfg = small_config();
    cfg.mc.point_tile = ccap::info::kMcPointTileAuto;
    const std::vector<CapacityKey> keys = {{0, 0}, {2, 1}, {4, 2}, {6, 3}};

    CapacityCache bulk(cfg);
    bulk.ensure(keys, 2);
    CapacityCache solo(cfg);
    for (const CapacityKey& k : keys) {
        const MiEstimate a = bulk.at(k);
        const MiEstimate b = solo.at(k);
        EXPECT_EQ(a.rate, b.rate);
        EXPECT_EQ(a.sem, b.sem);
        EXPECT_EQ(a.blocks, b.blocks);
    }

    // A differently-composed warm batch (subset, different lead key) must
    // not shift the shared values either.
    CapacityCache subset(cfg);
    const std::vector<CapacityKey> tail = {keys[2], keys[3]};
    subset.ensure(tail, 1);
    for (const CapacityKey& k : tail) EXPECT_EQ(subset.at(k).rate, bulk.at(k).rate);

    CapacityCache::Config disabled = cfg;
    disabled.enabled = false;
    CapacityCache recompute(disabled);
    for (const CapacityKey& k : keys) EXPECT_EQ(recompute.at(k).rate, bulk.at(k).rate);
}

TEST(CapacityCacheTest, InterpolateExactHitReturnsNodeValue) {
    CapacityCache cache(small_config());
    const auto v = cache.interpolate(0.10, 0.05);
    EXPECT_TRUE(v.exact);
    EXPECT_EQ(v.rate, cache.at({2, 1}).rate);
    EXPECT_GE(v.err_bound, 0.0);
}

TEST(CapacityCacheTest, InterpolateBracketsInteriorPoints) {
    CapacityCache cache(small_config());
    const auto v = cache.interpolate(0.125, 0.06);  // strictly between nodes
    EXPECT_FALSE(v.exact);
    const double c00 = cache.at({2, 1}).rate;
    const double c10 = cache.at({3, 1}).rate;
    const double c01 = cache.at({2, 2}).rate;
    const double c11 = cache.at({3, 2}).rate;
    const double lo = std::min({c00, c10, c01, c11});
    const double hi = std::max({c00, c10, c01, c11});
    EXPECT_GE(v.rate, lo);
    EXPECT_LE(v.rate, hi);
    // The certified bound covers the corner spread.
    EXPECT_GE(v.err_bound, hi - lo);
}

TEST(CapacityCacheTest, AdaptiveConfigTranslatesTargetErrToNodeSemTarget) {
    CapacityCache::Config cfg = small_config();
    cfg.target_interp_err = 0.0392;  // 1.96 * 0.02
    CapacityCache cache(cfg);
    EXPECT_NEAR(cache.config().mc.target_sem, 0.02, 1e-12);

    // An explicitly tighter mc.target_sem wins over the derived one.
    CapacityCache::Config tighter = small_config();
    tighter.target_interp_err = 0.0392;
    tighter.mc.target_sem = 0.001;
    EXPECT_NEAR(CapacityCache(tighter).config().mc.target_sem, 0.001, 1e-12);

    CapacityCache::Config bad = small_config();
    bad.target_interp_err = -0.1;
    EXPECT_THROW(CapacityCache{bad}, std::invalid_argument);
}

TEST(CapacityCacheTest, AdaptiveNodesStayBitIdenticalAcrossCacheAndEnsure) {
    // The determinism contract must survive adaptive precision: the node
    // value (including the data-dependent blocks spent) is still a pure
    // function of (config, key), however it was computed.
    CapacityCache::Config cfg = small_config();
    cfg.target_interp_err = 0.08;
    CapacityCache cached(cfg);
    CapacityCache::Config off = cfg;
    off.enabled = false;
    CapacityCache uncached(off);
    CapacityCache warmed(cfg);
    const std::vector<CapacityKey> keys = {{0, 0}, {2, 1}, {6, 3}};
    warmed.ensure(keys, 4);
    for (const CapacityKey& k : keys) {
        const MiEstimate c = cached.at(k);
        const MiEstimate u = uncached.at(k);
        const MiEstimate w = warmed.at(k);
        EXPECT_EQ(c.rate, u.rate);
        EXPECT_EQ(c.sem, u.sem);
        EXPECT_EQ(c.blocks, u.blocks);
        EXPECT_EQ(c.converged, u.converged);
        EXPECT_EQ(c.rate, w.rate);
        EXPECT_EQ(c.blocks, w.blocks);
    }
}

TEST(CapacityCacheTest, InterpolateReportsBlocksActuallySpent) {
    // Satellite regression: err_bound and the new blocks/converged fields
    // must reflect the adaptive nodes' realized spend, not the nominal
    // num_blocks.
    CapacityCache::Config cfg = small_config();
    cfg.target_interp_err = 0.08;
    CapacityCache cache(cfg);

    const auto exact = cache.interpolate(0.10, 0.05);
    ASSERT_TRUE(exact.exact);
    const MiEstimate node = cache.at({2, 1});
    EXPECT_EQ(exact.blocks, node.blocks);
    EXPECT_EQ(exact.converged, node.converged);
    EXPECT_EQ(exact.err_bound, 1.96 * node.sem);
    if (node.converged) {
        EXPECT_LE(exact.err_bound, cfg.target_interp_err + 1e-12);
    }

    const auto interior = cache.interpolate(0.125, 0.06);
    ASSERT_FALSE(interior.exact);
    const std::size_t corner_sum = cache.at({2, 1}).blocks + cache.at({3, 1}).blocks +
                                   cache.at({2, 2}).blocks + cache.at({3, 2}).blocks;
    EXPECT_EQ(interior.blocks, corner_sum);
    EXPECT_GE(interior.blocks, 4 * ccap::info::mc_round_blocks(cache.config().mc));
}

TEST(CapacityCacheTest, FixedModeInterpolateKeepsNominalBlocks) {
    // With no adaptive target every node spends exactly num_blocks and the
    // new fields degrade to the nominal accounting.
    CapacityCache cache(small_config());
    const auto exact = cache.interpolate(0.10, 0.05);
    ASSERT_TRUE(exact.exact);
    EXPECT_TRUE(exact.converged);
    EXPECT_EQ(exact.blocks, cache.config().mc.num_blocks);
    const auto interior = cache.interpolate(0.125, 0.06);
    EXPECT_TRUE(interior.converged);
    EXPECT_EQ(interior.blocks, 4 * cache.config().mc.num_blocks);
}

TEST(CapacityCacheTest, CapacityDecreasesAlongTheDeletionAxis) {
    // Sanity for the monotonicity the interpolation bound leans on: more
    // contention-induced deletions cannot raise the achievable rate (within
    // a generous MC tolerance at these tiny sample sizes).
    CapacityCache::Config cfg = small_config();
    cfg.mc.block_len = 32;
    cfg.mc.num_blocks = 8;
    CapacityCache cache(cfg);
    const double c0 = cache.at({0, 0}).rate;
    const double c6 = cache.at({6, 0}).rate;
    EXPECT_GT(c0, c6 - 0.05);
}

}  // namespace
