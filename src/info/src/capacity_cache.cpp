#include "ccap/info/capacity_cache.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <unordered_set>

namespace ccap::info {

namespace {

/// Memo shape: 16 lock-striped shards of at most 4096 nodes each, room for
/// the 61 x 31 nodes of a 0.01-step default grid many times over.
constexpr std::size_t kShards = 16;
constexpr std::size_t kPerShardCapacity = 4096;

/// Nearest grid index of `value`, clamped to [0, max_index] in double
/// before the conversion so an out-of-range quotient never reaches the cast.
std::int32_t clamp_index(double value, double step, std::int32_t max_index) {
    if (!(value > 0.0)) return 0;
    return static_cast<std::int32_t>(
        std::clamp(std::round(value / step), 0.0, static_cast<double>(max_index)));
}

/// Top grid index floor(max / step) of one axis; rejects steps so fine that
/// the index range (plus the interpolation neighbour i + 1) does not fit
/// the int32 CapacityKey.
std::int32_t top_index(double max, double step, const char* step_name) {
    const double top = std::floor(max / step + 1e-9);
    if (!(top < static_cast<double>(std::numeric_limits<std::int32_t>::max()))) {
        char msg[160];
        std::snprintf(msg, sizeof msg,
                      "CapacityCache: grid step %s = %g is too fine: the grid index "
                      "range exceeds int32",
                      step_name, step);
        throw std::invalid_argument(msg);
    }
    return static_cast<std::int32_t>(top);
}

}  // namespace

CapacityCache::CapacityCache(Config cfg)
    : cfg_(cfg),
      ipd_max_(0),
      ipi_max_(0),
      cache_(kShards, kPerShardCapacity) {
    const CapacityGridSpec& g = cfg_.grid;
    if (!(g.pd_step > 0.0) || !(g.pi_step > 0.0))
        throw std::invalid_argument("CapacityCache: grid steps must be > 0");
    if (!(g.pd_max >= 0.0) || !(g.pi_max >= 0.0) || g.pd_max + g.pi_max >= 1.0)
        throw std::invalid_argument("CapacityCache: grid maxima must satisfy pd+pi < 1");
    ipd_max_ = top_index(g.pd_max, g.pd_step, "pd_step");
    ipi_max_ = top_index(g.pi_max, g.pi_step, "pi_step");
    if (cfg_.target_interp_err < 0.0)
        throw std::invalid_argument("CapacityCache: target_interp_err must be >= 0");
    if (cfg_.target_interp_err > 0.0) {
        // interpolate() charges 1.96 * sem per node, so a per-node SEM of
        // err / 1.96 delivers the requested confidence radius. Baked into
        // the Config once, here, so every node evaluation path shares it.
        const double sem_target = cfg_.target_interp_err / 1.96;
        if (!(cfg_.mc.target_sem > 0.0) || sem_target < cfg_.mc.target_sem)
            cfg_.mc.target_sem = sem_target;
    }
    // Validate the extreme node up front so bad base params fail fast.
    node_params({ipd_max_, ipi_max_}).validate();
}

CapacityKey CapacityCache::quantize(double pd, double pi) const noexcept {
    return {clamp_index(pd, cfg_.grid.pd_step, ipd_max_),
            clamp_index(pi, cfg_.grid.pi_step, ipi_max_)};
}

DriftParams CapacityCache::node_params(CapacityKey key) const noexcept {
    DriftParams p = cfg_.base;
    p.p_d = static_cast<double>(key.ipd) * cfg_.grid.pd_step;
    p.p_i = static_cast<double>(key.ipi) * cfg_.grid.pi_step;
    return p;
}

MiEstimate CapacityCache::compute(CapacityKey key) const {
    const CapacityPoint point{node_params(key), node_seed(key)};
    return iid_mutual_information_rate_points(std::span(&point, 1), node_mc_options())[0];
}

MiEstimate CapacityCache::at(CapacityKey key) {
    if (!cfg_.enabled) return compute(key);
    return cache_.get_or_compute(key, [this](const CapacityKey& k) { return compute(k); });
}

void CapacityCache::ensure(std::span<const CapacityKey> keys, unsigned threads) {
    if (!cfg_.enabled) return;
    std::vector<CapacityKey> missing;
    {
        std::unordered_set<CapacityKey, CapacityKeyHash> seen;
        for (const CapacityKey& k : keys)
            if (seen.insert(k).second && !cache_.find(k)) missing.push_back(k);
    }
    if (missing.empty()) return;
    std::vector<CapacityPoint> points;
    points.reserve(missing.size());
    for (const CapacityKey& k : missing) points.push_back({node_params(k), node_seed(k)});
    McOptions opts = node_mc_options();
    opts.threads = threads;
    const std::vector<MiEstimate> values =
        iid_mutual_information_rate_points(points, opts);
    for (std::size_t i = 0; i < missing.size(); ++i) cache_.insert(missing[i], values[i]);
}

CapacityCache::Interpolated CapacityCache::interpolate(double pd, double pi) {
    const CapacityGridSpec& g = cfg_.grid;
    const double fd = std::clamp(pd / g.pd_step, 0.0, static_cast<double>(ipd_max_));
    const double fi = std::clamp(pi / g.pi_step, 0.0, static_cast<double>(ipi_max_));
    const auto i0 = static_cast<std::int32_t>(std::floor(fd));
    const auto j0 = static_cast<std::int32_t>(std::floor(fi));
    const std::int32_t i1 = std::min(i0 + 1, ipd_max_);
    const std::int32_t j1 = std::min(j0 + 1, ipi_max_);
    const double td = fd - static_cast<double>(i0);
    const double ti = fi - static_cast<double>(j0);

    const MiEstimate c00 = at({i0, j0});
    Interpolated out;
    if (td == 0.0 && ti == 0.0) {
        out.rate = c00.rate;
        // Adaptive nodes stop on their realized SEM, so this radius — and
        // the blocks/converged report — reflects what the node actually
        // ran, not the nominal num_blocks.
        out.err_bound = 1.96 * c00.sem;
        out.exact = true;
        out.blocks = c00.blocks;
        out.converged = c00.converged;
        return out;
    }
    const MiEstimate c10 = at({i1, j0});
    const MiEstimate c01 = at({i0, j1});
    const MiEstimate c11 = at({i1, j1});
    out.rate = (1.0 - td) * ((1.0 - ti) * c00.rate + ti * c01.rate) +
               td * ((1.0 - ti) * c10.rate + ti * c11.rate);
    // Monotone bracket: capacity is non-increasing in both P_d and P_i, so
    // truth lies in [min corner, max corner]; so does the bilinear blend
    // (its weights are a convex combination). Add the corners' MC radius.
    const double cmax = std::max({c00.rate, c10.rate, c01.rate, c11.rate});
    const double cmin = std::min({c00.rate, c10.rate, c01.rate, c11.rate});
    const double sem = std::max({c00.sem, c10.sem, c01.sem, c11.sem});
    out.err_bound = (cmax - cmin) + 1.96 * sem;
    out.exact = false;
    out.blocks = c00.blocks + c10.blocks + c01.blocks + c11.blocks;
    out.converged = c00.converged && c10.converged && c01.converged && c11.converged;
    return out;
}

}  // namespace ccap::info
