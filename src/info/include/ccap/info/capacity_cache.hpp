// Sharded, bounded memo-cache of Monte-Carlo capacity estimates over a
// quantized (P_d, P_i) grid.
//
// Millions of contending flows collapse onto a small neighbourhood of
// effective channel parameters, so the per-flow capacity hot path is the
// same expensive lattice MC estimate evaluated over and over at nearly
// identical points. The cache quantizes (P_d, P_i) onto a uniform grid and
// memoizes one MiEstimate per grid node in a util::ShardedMemoCache.
//
// Determinism contract (the load-bearing design point): a node's Monte-
// Carlo seed is derived from the *node key* (substream_seed over the grid
// indices mixed with the cache seed), never from evaluation order, caller
// identity, or thread schedule. A node's value is therefore a pure
// function of (config, key): cache-on and cache-off evaluation are
// bit-identical, concurrent duplicate computes are harmless, and the
// contention engine's aggregate is invariant in thread count.
//
// Two lookup modes:
//   * exact/quantized — snap to the nearest node and use its estimate
//     directly (bit-identity mode; quantization is part of the model);
//   * interpolated — bilinear over the 4 surrounding nodes, carrying a
//     certified error bound (THEORY §13): capacity is monotone
//     non-increasing in P_d and P_i, so the true value at an interior
//     point is bracketed by the extreme corner values; the bound adds the
//     corners' MC confidence radius.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "ccap/info/deletion_bounds.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/shard_cache.hpp"

namespace ccap::info {

/// Uniform quantization grid over the (P_d, P_i) plane. Steps must divide
/// the maxima sensibly; indices are clamped into [0, *_max / *_step].
struct CapacityGridSpec {
    double pd_step = 0.01;
    double pi_step = 0.01;
    double pd_max = 0.60;
    double pi_max = 0.30;
};

struct CapacityKey {
    std::int32_t ipd = 0;  ///< P_d grid index (pd = ipd * pd_step)
    std::int32_t ipi = 0;  ///< P_i grid index (pi = ipi * pi_step)
    bool operator==(const CapacityKey&) const = default;
};

struct CapacityKeyHash {
    std::size_t operator()(const CapacityKey& k) const noexcept {
        // SplitMix64 over the packed indices: shard-spread and cheap.
        std::uint64_t x = (static_cast<std::uint64_t>(static_cast<std::uint32_t>(k.ipd))
                           << 32) |
                          static_cast<std::uint32_t>(k.ipi);
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return static_cast<std::size_t>(x);
    }
};

class CapacityCache {
public:
    struct Config {
        CapacityGridSpec grid;
        /// Channel parameters shared by every node: p_s, alphabet,
        /// max_drift, max_insert_run. p_d / p_i are overwritten
        /// from the node key.
        DriftParams base{0.0, 0.0, 0.0, 2, 16, 8};
        /// Per-node Monte-Carlo options. `threads` is ignored here — the
        /// bulk-ensure path parallelizes over nodes, one thread per node.
        McOptions mc{48, 8, 1};
        /// Warm nodes to a target interpolation error instead of a fixed
        /// block count: when > 0, the constructor translates this into an
        /// adaptive per-node SEM target (mc.target_sem = target_interp_err
        /// / 1.96, the z = 1.96 confidence radius interpolate() charges per
        /// node) so every node — whether computed by at(), ensure(), or a
        /// cache-off recompute — runs the same adaptive McOptions. Folding
        /// the target into the Config, rather than passing it to ensure(),
        /// is what keeps a node's value a pure function of (config, key).
        /// Leave 0 to keep the fixed mc.num_blocks behavior. When mc.
        /// target_sem is also set explicitly, the tighter target wins.
        double target_interp_err = 0.0;
        /// Mixed into every node seed; distinct caches sample independently.
        std::uint64_t seed = 0x5eedca9e00c0ffeeULL;
        /// false = memoization off: at()/ensure() recompute every time (the
        /// naive baseline). Values are unchanged either way.
        bool enabled = true;
    };

    explicit CapacityCache(Config cfg);

    [[nodiscard]] const Config& config() const noexcept { return cfg_; }

    /// Snap (pd, pi) to the nearest grid node (indices clamped to the grid).
    [[nodiscard]] CapacityKey quantize(double pd, double pi) const noexcept;

    /// The channel parameters of a node.
    [[nodiscard]] DriftParams node_params(CapacityKey key) const noexcept;

    /// The node's Monte-Carlo seed — a pure function of (config seed, key).
    [[nodiscard]] std::uint64_t node_seed(CapacityKey key) const noexcept {
        return util::substream_seed(
            util::substream_seed(cfg_.seed, static_cast<std::uint64_t>(
                                                static_cast<std::uint32_t>(key.ipd))),
            static_cast<std::uint64_t>(static_cast<std::uint32_t>(key.ipi)));
    }

    /// The McOptions every node evaluation must use. In CRN mode
    /// (mc.point_tile > 0) this pins the shared-tape root to a pure
    /// function of the config seed: without it the engine would derive the
    /// root from the first point of whatever span it is handed, and a
    /// node's value would depend on which batch warmed it — at(), bulk
    /// ensure() and the naive per-flow path must all agree bit for bit.
    [[nodiscard]] McOptions node_mc_options() const noexcept {
        McOptions opts = cfg_.mc;
        if (opts.point_tile != 0 && opts.crn_root == 0)
            opts.crn_root = util::substream_seed(cfg_.seed, 0xc2a7ULL);
        return opts;
    }

    /// The capacity estimate at a node: cached when enabled, recomputed
    /// otherwise — bit-identical either way.
    [[nodiscard]] MiEstimate at(CapacityKey key);

    /// Bulk warm-up: evaluate every missing node of `keys` in one parallel
    /// batched pass (iid_mutual_information_rate_points over `threads`
    /// workers) and insert the results. No-op when memoization is disabled.
    void ensure(std::span<const CapacityKey> keys, unsigned threads);

    struct Interpolated {
        double rate = 0.0;       ///< bilinear estimate, bits per channel use
        double err_bound = 0.0;  ///< certified |truth - rate| bound (see above)
        bool exact = false;      ///< (pd, pi) landed exactly on a node
        /// MC blocks actually spent by the nodes backing this value: the
        /// one node on an exact hit, the sum over the 4 corners otherwise.
        /// With adaptive precision the spend varies per node, so err_bound
        /// reflects the blocks actually run, not a nominal num_blocks.
        std::size_t blocks = 0;
        /// Every backing node met its SEM target (always true in fixed
        /// mode); false means some node hit the block cap first and
        /// err_bound is wider than the configured target.
        bool converged = true;
    };

    /// Monotone bilinear interpolation over the 4 surrounding grid nodes.
    /// err_bound = (max corner - min corner) + z * max corner sem, valid
    /// under monotonicity of capacity in (P_d, P_i) with the usual MC
    /// confidence at z = 1.96.
    [[nodiscard]] Interpolated interpolate(double pd, double pi);

    [[nodiscard]] util::ShardCacheStats stats() const { return cache_.stats(); }

private:
    [[nodiscard]] MiEstimate compute(CapacityKey key) const;

    Config cfg_;
    std::int32_t ipd_max_;
    std::int32_t ipi_max_;
    util::ShardedMemoCache<CapacityKey, MiEstimate, CapacityKeyHash> cache_;
};

}  // namespace ccap::info
