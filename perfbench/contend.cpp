// `contend`: sched::ContentionEngine::run on 10^5 flows with the capacity
// cache on but cold for each request, exact quantization, and CRN point
// tiles (mc.point_tile = kMcPointTileAuto) warming the distinct nodes, at
// threads = nproc. One closed-loop request is one run() on a fresh cache.
#include <cmath>
#include <cstdio>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "ccap/info/batch_lattice.hpp"
#include "ccap/info/capacity_cache.hpp"
#include "ccap/sched/contention.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using ccap::info::CapacityCache;
using ccap::info::CapacityKey;
using ccap::sched::ContentionConfig;
using ccap::sched::ContentionEngine;
using ccap::sched::ContentionReport;

constexpr std::size_t kFlows = 100000;

/// `ccap contend` defaults, with 10^5 flows at an offered load of 1.1 (past
/// saturation, so queues overflow and flows spread over several nodes).
CapacityCache::Config cache_config() {
    CapacityCache::Config cc;
    cc.grid.pd_step = 0.01;
    cc.grid.pi_step = 0.01;
    cc.mc.block_len = 48;
    cc.mc.num_blocks = 8;
    cc.mc.point_tile = ccap::info::kMcPointTileAuto;
    cc.enabled = true;
    return cc;
}

ContentionConfig engine_config(std::uint64_t seed, unsigned threads) {
    ContentionConfig cfg;
    cfg.flows = kFlows;
    cfg.offered_load = 1.1;
    cfg.ticks = 1024;
    cfg.slices = 64;
    cfg.domain_flows = 16;
    cfg.queue_cap = 16;
    cfg.collision_rate = 0.10;
    cfg.quantize_exact = true;
    cfg.threads = threads;
    cfg.seed = seed;
    return cfg;
}

std::uint64_t digest_of(const ContentionReport& rep) {
    Digest d;
    for (const auto& f : rep.flows) {
        d.add(f.p_d_eff);
        d.add(f.p_i_eff);
        d.add(f.capacity);
    }
    d.add(rep.aggregate_capacity_per_tick);
    d.add(rep.mean_capacity);
    d.add_u64(rep.distinct_nodes);
    return d.value();
}

/// Flows whose capacity or effective parameters are not finite.
std::uint64_t count_bad(const ContentionReport& rep, RunResult& r) {
    std::uint64_t bad = 0;
    for (const auto& f : rep.flows)
        if (!std::isfinite(f.capacity) || !std::isfinite(f.p_d_eff) ||
            !std::isfinite(f.p_i_eff))
            ++bad;
    if (!std::isfinite(rep.aggregate_capacity_per_tick)) {
        bad = rep.flows.size();
        r.fail("contend aggregate is not finite");
    }
    if (bad > 0) r.fail("contend: non-finite per-flow outputs");
    return bad;
}

ContentionReport run_once(std::uint64_t seed, unsigned threads) {
    CapacityCache cache(cache_config());
    const ContentionEngine engine(engine_config(seed, threads), cache);
    return engine.run();
}

}  // namespace

std::size_t contend_point_tile(std::size_t nodes) {
    return ccap::info::resolved_point_tile(CapacityCache(cache_config()).node_mc_options(), nodes);
}

std::size_t contend_sweep_lanes(std::size_t nodes) {
    const CapacityCache cache(cache_config());
    return contend_point_tile(nodes) *
           ccap::info::resolved_mc_batch(cache.node_mc_options(), cache.config().base);
}

void run_contend(const Options& opt, RunResult& r) {
    LoopStats s;
    // Set-up: construct the cache and engine and warm the pool, the
    // simulation and a cold cache with a CLI-default-size (4096-flow) run.
    std::vector<double> setups;
    for (int rep = 0; rep < kSetupReps; ++rep) {
        const Stamp t0;
        CapacityCache cache(cache_config());
        ContentionConfig small = engine_config(opt.seed, opt.nproc);
        small.flows = 4096;
        const ContentionEngine engine(small, cache);
        const ContentionReport warm = engine.run();
        if (warm.flows.size() != small.flows) r.fail("contend warm-up returned short");
        setups.push_back(t0.cpu_s());
    }
    s.setup_cpu_s = median(setups);

    // Request k simulates under seed substream k, so one run averages the
    // seed-dependent node count over many simulations.
    std::vector<std::uint64_t> digests;
    std::uint64_t k = 0;
    Calibrator cal(opt.nproc);
    const Stamp loop0;
    do {
        cal.sample();
        const std::uint64_t seed = ccap::util::substream_seed(opt.seed, k++);
        r.attempted += kFlows;
        const Stamp t0;
        try {
            CapacityCache cache(cache_config());
            const ContentionEngine engine(engine_config(seed, opt.nproc), cache);
            const ContentionReport rep = engine.run();
            s.add_op(t0);
            const std::uint64_t bad = count_bad(rep, r);
            r.failed += bad;
            s.work += static_cast<double>(kFlows - bad);
            digests.push_back(digest_of(rep));
        } catch (const std::exception& e) {
            r.failed += kFlows;
            r.fail(std::string("contend threw: ") + e.what());
            digests.push_back(0);
        }
    } while (loop0.wall_s() < opt.seconds);

    // Reference: the first and last requests again at threads = 1 must give
    // the same bits.
    for (std::uint64_t i : {std::uint64_t{0}, k - 1})
        if (digest_of(run_once(ccap::util::substream_seed(opt.seed, i), 1)) != digests[i]) {
            r.failed += kFlows;
            r.fail("contend digest differs from the threads=1 reference");
        }
    report_loop(s, cal, r);
    std::printf("contend flows_per_s %.4f flows/s\n", s.work / s.loop_s);
}

void trace_contend(const Options& opt, RunResult& r) {
    // Thread axis, untraced, each on a fresh cold cache (the nproc wall is
    // the median of three runs).
    double walls[3] = {0, 0, 0};
    const unsigned counts[3] = {1, std::min(2U, opt.nproc), opt.nproc};
    ContentionReport ref;
    for (int k = 0; k < 3; ++k) {
        std::vector<double> t;
        for (int rep = 0; rep < (k == 2 ? 3 : 1); ++rep) {
            const auto t0 = Clock::now();
            ContentionReport report = run_once(opt.seed, counts[k]);
            t.push_back(seconds_since(t0));
            r.attempted += kFlows;
            r.failed += count_bad(report, r);
            if (k == 0 && rep == 0)
                ref = std::move(report);
            else if (digest_of(report) != digest_of(ref))
                r.fail("contend digest differs across thread counts");
        }
        walls[k] = median(t);
    }
    report_speedups("contend", walls[0], walls[1], walls[2], r);

    // Traced run: run()'s stages recomposed from the engine's and the
    // cache's public calls, one span each, on a fresh cold cache.
    SpanLog log;
    Stopwatch wall;
    CapacityCache cache(cache_config());
    const ContentionConfig cfg = engine_config(opt.seed, opt.nproc);
    const ContentionEngine engine(cfg, cache);
    wall.start();
    auto t0 = Clock::now();
    const std::vector<ccap::sched::FlowLoad> loads = engine.simulate();
    log.add("simulate", seconds_since(t0));

    t0 = Clock::now();
    const std::size_t domains = (cfg.flows + cfg.domain_flows - 1) / cfg.domain_flows;
    std::vector<std::uint64_t> domain_served(domains, 0);
    for (std::size_t f = 0; f < cfg.flows; ++f)
        domain_served[f / cfg.domain_flows] += loads[f].served;
    std::vector<ccap::sched::FlowOutcome> flows(cfg.flows);
    for (std::size_t f = 0; f < cfg.flows; ++f)
        flows[f] = engine.map_effective(
            loads[f], domain_served[f / cfg.domain_flows] - loads[f].served);
    log.add("map", seconds_since(t0));

    t0 = Clock::now();
    std::vector<CapacityKey> keys(cfg.flows);
    std::vector<CapacityKey> unique;
    {
        std::unordered_map<CapacityKey, std::size_t, ccap::info::CapacityKeyHash> seen;
        for (std::size_t f = 0; f < cfg.flows; ++f) {
            keys[f] = cache.quantize(flows[f].p_d_eff, flows[f].p_i_eff);
            if (seen.emplace(keys[f], unique.size()).second) unique.push_back(keys[f]);
        }
    }
    log.add("quantize", seconds_since(t0));

    t0 = Clock::now();
    cache.ensure(unique, cfg.threads);
    log.add("ensure", seconds_since(t0));

    const ccap::util::ShardCacheStats before = cache.stats();
    t0 = Clock::now();
    std::uint64_t blocks = 0;
    for (const CapacityKey& k : unique) blocks += cache.at(k).blocks;
    for (std::size_t f = 0; f < cfg.flows; ++f) flows[f].capacity = cache.at(keys[f]).rate;
    const double lookup_s = seconds_since(t0);
    log.add("lookup", lookup_s);
    const ccap::util::ShardCacheStats after = cache.stats();

    t0 = Clock::now();
    double aggregate = 0.0;
    std::uint64_t offered = 0, served = 0;
    for (std::size_t f = 0; f < cfg.flows; ++f) {
        offered += flows[f].load.offered;
        served += flows[f].load.served;
        aggregate += flows[f].capacity * (static_cast<double>(flows[f].load.served) /
                                          static_cast<double>(cfg.ticks));
    }
    log.add("fold", seconds_since(t0));
    wall.stop();
    r.attempted += kFlows;

    // The recomposition must reproduce run() exactly, or the spans would
    // measure a different program.
    bool same = aggregate == ref.aggregate_capacity_per_tick &&
                unique.size() == ref.distinct_nodes && blocks == ref.mc_blocks_spent;
    for (std::size_t f = 0; same && f < cfg.flows; ++f)
        same = flows[f].capacity == ref.flows[f].capacity &&
               flows[f].p_d_eff == ref.flows[f].p_d_eff &&
               flows[f].p_i_eff == ref.flows[f].p_i_eff;
    if (!same) {
        r.failed += kFlows;
        r.fail("contend stage recomposition does not reproduce run()'s aggregate");
    }
    r.metrics.set("check.contend_recomposition", same ? 1.0 : 0.0, "bool");

    report_shares("contend",
                  {{"simulate", log.total_seconds("simulate")},
                   {"map", log.total_seconds("map")},
                   {"quantize", log.total_seconds("quantize")},
                   {"ensure", log.total_seconds("ensure")},
                   {"lookup", lookup_s},
                   {"fold", log.total_seconds("fold")}},
                  wall.seconds(), wall.seconds() / walls[2] - 1.0, r);

    const double hits = static_cast<double>(after.hits - before.hits);
    const double misses = static_cast<double>(after.misses - before.misses);
    r.metrics.set("info.cache.hit_ratio.contend", hits / std::max(1.0, hits + misses), "share");
    r.metrics.set("info.cache.hit_ns",
                  1e9 * lookup_s / static_cast<double>(unique.size() + cfg.flows), "ns");
    // Accuracy delivered: mean MC standard error behind each flow's capacity.
    double sem_sum = 0.0;
    for (const CapacityKey& k : keys) sem_sum += cache.at(k).sem;
    r.metrics.set("contend.mean_node_sem", sem_sum / static_cast<double>(cfg.flows), "bits/use");
    r.metrics.set("info.cache.distinct_nodes", static_cast<double>(unique.size()), "count");
    r.metrics.set("sched.msym_per_s",
                  static_cast<double>(offered + served) / log.total_seconds("simulate") / 1e6,
                  "Msym/s");
    r.metrics.set("sched.map_ns_per_flow",
                  1e9 * log.total_seconds("map") / static_cast<double>(cfg.flows), "ns");

    // Per-lane lattice throughput at contend's CRN tile: the first G
    // distinct nodes' parameters, each tile lane group carrying one block per
    // node for resolved_mc_batch blocks, through the per-lane entry points.
    const ccap::info::McOptions node_opts = cache.node_mc_options();
    const std::size_t g = contend_point_tile(unique.size());
    const std::size_t lanes = contend_sweep_lanes(unique.size());
    std::vector<ccap::info::DriftParams> lane_params(lanes);
    std::vector<std::vector<std::uint8_t>> tx(lanes), rx(lanes);
    std::vector<std::span<const std::uint8_t>> txv(lanes), rxv(lanes);
    ccap::util::Rng rng(ccap::util::substream_seed(opt.seed, 0xc0));
    std::size_t m_max = 0;
    for (std::size_t l = 0; l < lanes; ++l) {
        lane_params[l] = cache.node_params(unique[l % g]);
        tx[l].resize(node_opts.block_len);
        for (auto& sym : tx[l]) sym = static_cast<std::uint8_t>(rng.uniform_below(2));
        rx[l] = ccap::info::simulate_drift_channel(tx[l], lane_params[l], rng);
        txv[l] = tx[l];
        rxv[l] = rx[l];
        m_max = std::max(m_max, rx[l].size());
    }
    const ccap::util::Matrix priors(node_opts.block_len, 2, 0.5);
    ccap::info::LatticeWorkspace ws;
    std::vector<double> times;
    const auto tall = Clock::now();
    while (times.size() < 5 || seconds_since(tall) < 0.3) {
        t0 = Clock::now();
        const auto a = ccap::info::log2_likelihood_batch_per_lane(lane_params, txv, rxv, ws);
        const auto b =
            ccap::info::log2_prior_marginal_batch_per_lane(lane_params, priors, rxv, ws);
        times.push_back(seconds_since(t0));
        if (a.size() != lanes || b.size() != lanes) r.fail("per-lane lattice: short result");
    }
    const double cells =
        lattice_cells(node_opts.block_len, lane_params.front().max_drift, m_max, lanes);
    r.metrics.set("info.lattice.pl_gcells_per_s", cells / median(times) / 1e9, "Gcell/s");
}

}  // namespace perfbench
