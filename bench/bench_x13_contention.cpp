// X13 — sharded multi-tenant contention engine: million-flow throughput.
//
// The contention engine (sched/contention.hpp) maps offered load onto
// per-flow effective channel parameters and then onto capacity. The naive
// realization evaluates one Monte-Carlo lattice estimate per flow, with no
// memoization; the engine instead collapses flows onto quantized grid
// nodes (a few dozen for any realistic load mix), evaluates each node once
// through the SIMD batch engine, and memoizes nodes in the sharded
// capacity cache. This harness measures what that buys in flows/sec at
// bench scale (>= 1e5 flows) and records the aggregate capacity-vs-load
// curve the engine exists to produce.
//
// Correctness gates before any timing (exit 1 on violation):
//   * full run bit-identical at 1 vs 8 worker threads,
//   * bit-identical with the capacity cache on vs off,
//   * the fast path (dedup + cache + SIMD tiles) bit-identical to the
//     naive per-flow uncached path (node seeds derive from node keys, so
//     both compute the same estimates).
// Full-size runs must also show >= 3x flows/sec over naive and an
// aggregate capacity curve at least 0.75x the recorded one at every load.
// Emits BENCH_JSON; `--smoke` runs a small configuration and checks the
// identity gates only.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "ccap/info/capacity_cache.hpp"
#include "ccap/sched/contention.hpp"

namespace {

using ccap::info::CapacityCache;
using ccap::sched::ContentionConfig;
using ccap::sched::ContentionEngine;
using ccap::sched::ContentionReport;

CapacityCache::Config cache_config(bool fast, std::size_t block_len,
                                   std::size_t num_blocks) {
    CapacityCache::Config cc;
    cc.grid = {0.01, 0.01, 0.60, 0.30};
    cc.base.max_drift = 8;
    cc.base.max_insert_run = 4;
    cc.mc.block_len = block_len;
    cc.mc.num_blocks = num_blocks;
    cc.mc.threads = 1;
    if (!fast) cc.enabled = false;  // no memoization
    return cc;
}

bool reports_identical(const ContentionReport& a, const ContentionReport& b) {
    if (a.flows.size() != b.flows.size() || a.total_offered != b.total_offered ||
        a.total_served != b.total_served || a.distinct_nodes != b.distinct_nodes)
        return false;
    if (std::memcmp(&a.aggregate_capacity_per_tick, &b.aggregate_capacity_per_tick,
                    sizeof(double)) != 0 ||
        std::memcmp(&a.mean_capacity, &b.mean_capacity, sizeof(double)) != 0)
        return false;
    for (std::size_t f = 0; f < a.flows.size(); ++f)
        if (std::memcmp(&a.flows[f].capacity, &b.flows[f].capacity, sizeof(double)) != 0)
            return false;
    return true;
}

}  // namespace

int main(int argc, char** argv) {
    bool smoke = false;
    for (int i = 1; i < argc; ++i)
        if (std::string(argv[i]) == "--smoke") smoke = true;

    const std::size_t bench_flows = smoke ? 2000 : 120000;
    const ccap::sched::SimTime bench_ticks = smoke ? 128 : 256;
    const std::size_t mc_block = smoke ? 16 : 48;
    const std::size_t mc_blocks = smoke ? 2 : 6;

    ContentionConfig base;
    base.offered_load = 1.1;
    base.slices = 64;
    base.domain_flows = 16;
    base.queue_cap = 8;
    base.deadline = 64;
    base.seed = 0x13;

    ccap::bench::BenchJson json("contention");
    json.field("flows", static_cast<std::uint64_t>(bench_flows));
    json.field("ticks", static_cast<std::uint64_t>(bench_ticks));
    json.field("mc_block", static_cast<std::uint64_t>(mc_block));
    json.field("mc_blocks", static_cast<std::uint64_t>(mc_blocks));

    std::printf("X13: contention engine — memoized grid nodes vs naive per-flow MC\n");

    // ---- Correctness gates (small scale, full pipeline) -------------------
    ContentionConfig small = base;
    small.flows = 384;
    small.ticks = 128;
    small.slices = 16;

    bool thread_identical = true, cache_identical = true, naive_identical = true;
    {
        ContentionConfig cfg = small;
        cfg.threads = 1;
        CapacityCache c1(cache_config(true, mc_block, mc_blocks));
        const ContentionReport r1 = ContentionEngine(cfg, c1).run();
        cfg.threads = 8;
        CapacityCache c8(cache_config(true, mc_block, mc_blocks));
        const ContentionReport r8 = ContentionEngine(cfg, c8).run();
        thread_identical = reports_identical(r1, r8);

        {
            CapacityCache::Config cc = cache_config(true, mc_block, mc_blocks);
            cc.enabled = false;
            CapacityCache disabled(cc);
            cache_identical = reports_identical(r8, ContentionEngine(cfg, disabled).run());
        }

        ContentionConfig naive_cfg = cfg;
        naive_cfg.dedup_nodes = false;
        CapacityCache naive_cache(cache_config(false, mc_block, mc_blocks));
        naive_identical =
            reports_identical(r8, ContentionEngine(naive_cfg, naive_cache).run());
    }
    std::printf("  identity: threads %s, cache on/off %s, fast-vs-naive %s\n",
                thread_identical ? "yes" : "NO", cache_identical ? "yes" : "NO",
                naive_identical ? "yes" : "NO");
    json.field("thread_identical", thread_identical ? 1 : 0);
    json.field("cache_identical", cache_identical ? 1 : 0);
    json.field("naive_identical", naive_identical ? 1 : 0);

    // ---- Throughput: naive per-flow uncached vs memoized path -------------
    ContentionConfig cfg = base;
    cfg.flows = bench_flows;
    cfg.ticks = bench_ticks;

    double sim_sec = 0.0;
    {
        CapacityCache cache(cache_config(true, mc_block, mc_blocks));
        const ContentionEngine engine(cfg, cache);
        ccap::bench::WallTimer timer;
        const auto loads = engine.simulate();
        sim_sec = timer.seconds();
        if (loads.empty()) std::printf("# impossible\n");
    }

    ContentionConfig naive_cfg = cfg;
    naive_cfg.dedup_nodes = false;
    CapacityCache naive_cache(cache_config(false, mc_block, mc_blocks));
    ccap::bench::WallTimer naive_timer;
    const ContentionReport naive = ContentionEngine(naive_cfg, naive_cache).run();
    const double naive_sec = naive_timer.seconds();

    CapacityCache fast_cache(cache_config(true, mc_block, mc_blocks));
    const ContentionEngine fast_engine(cfg, fast_cache);
    ccap::bench::WallTimer cold_timer;
    const ContentionReport fast_cold = fast_engine.run();
    const double fast_cold_sec = cold_timer.seconds();
    ccap::bench::WallTimer warm_timer;
    const ContentionReport fast_warm = fast_engine.run();
    const double fast_warm_sec = warm_timer.seconds();

    const bool bench_identical = reports_identical(naive, fast_cold) &&
                                 reports_identical(fast_cold, fast_warm);
    const double flows_d = static_cast<double>(bench_flows);
    const double speedup = naive_sec / fast_cold_sec;
    std::printf("  %zu flows, %llu ticks (simulate alone: %.2fs)\n", bench_flows,
                static_cast<unsigned long long>(bench_ticks), sim_sec);
    std::printf("  naive per-flow uncached: %8.2fs  %12.0f flows/sec\n", naive_sec,
                flows_d / naive_sec);
    std::printf("  memoized cold cache:     %8.2fs  %12.0f flows/sec  (%.2fx)\n",
                fast_cold_sec, flows_d / fast_cold_sec, speedup);
    std::printf("  memoized warm cache:     %8.2fs  %12.0f flows/sec  (%.2fx)\n",
                fast_warm_sec, flows_d / fast_warm_sec, naive_sec / fast_warm_sec);
    std::printf("  distinct capacity nodes: %zu of %zu flows, identical: %s\n",
                fast_cold.distinct_nodes, bench_flows, bench_identical ? "yes" : "NO");
    json.field("sim_seconds", sim_sec);
    json.field("naive_seconds", naive_sec);
    json.field("fast_cold_seconds", fast_cold_sec);
    json.field("fast_warm_seconds", fast_warm_sec);
    json.field("flows_per_sec_naive", flows_d / naive_sec);
    json.field("flows_per_sec_fast", flows_d / fast_cold_sec);
    json.field("flows_per_sec_warm", flows_d / fast_warm_sec);
    json.field("flows_speedup", speedup);
    json.field("distinct_nodes", static_cast<std::uint64_t>(fast_cold.distinct_nodes));
    json.field("bench_identical", bench_identical ? 1 : 0);

    // ---- Aggregate capacity vs offered load (the engine's deliverable) ----
    std::printf("  %8s %12s %12s %10s %10s %16s\n", "load", "offered", "dropped",
                "mean P_d", "mean P_i", "agg bits/tick");
    const std::vector<double> curve_loads = {0.2, 0.5, 0.8, 1.1, 1.5};
    // The full-size curve as recorded; a full run may fall at most 25% below it.
    const std::vector<double> recorded_curve = {1327.41, 2997.78, 3787.49, 4485.76, 2479.03};
    bool curve_above_floor = true;
    for (std::size_t i = 0; i < curve_loads.size(); ++i) {
        const double load = curve_loads[i];
        ContentionConfig point = cfg;
        point.offered_load = load;
        const ContentionReport r = ContentionEngine(point, fast_cache).run();
        std::printf("  %8.2f %12llu %12llu %10.4f %10.4f %16.4f\n", load,
                    static_cast<unsigned long long>(r.total_offered),
                    static_cast<unsigned long long>(r.total_dropped), r.mean_pd_eff,
                    r.mean_pi_eff, r.aggregate_capacity_per_tick);
        char tag[32];
        std::snprintf(tag, sizeof tag, "%03d", static_cast<int>(std::lround(load * 100)));
        json.field(std::string("agg_bits_per_tick_load") + tag, r.aggregate_capacity_per_tick);
        if (!smoke && r.aggregate_capacity_per_tick < 0.75 * recorded_curve[i]) {
            curve_above_floor = false;
            std::fprintf(stderr, "FAIL: load %.2f aggregate %.2f < 0.75 x recorded %.2f\n",
                         load, r.aggregate_capacity_per_tick, recorded_curve[i]);
        }
    }

    json.write();

    if (!thread_identical || !cache_identical || !naive_identical || !bench_identical) {
        std::fprintf(stderr, "FAIL: contention engine paths are not bit-identical\n");
        return 1;
    }
    if (!smoke && speedup < 3.0) {
        std::fprintf(stderr, "FAIL: memoized path speedup %.2fx < 3x over naive\n", speedup);
        return 1;
    }
    return curve_above_floor ? 0 : 1;
}
