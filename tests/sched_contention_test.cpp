#include "ccap/sched/contention.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "ccap/sched/event_queue.hpp"
#include "ccap/sched/flow_queue.hpp"
#include "ccap/sched/pacing.hpp"
#include "ccap/util/rng.hpp"

namespace {

using ccap::info::CapacityCache;
using ccap::sched::ContentionConfig;
using ccap::sched::ContentionEngine;
using ccap::sched::ContentionReport;
using ccap::sched::EventQueue;
using ccap::sched::FlowCounters;
using ccap::sched::FlowLoad;
using ccap::sched::FlowOutcome;
using ccap::sched::PacingController;
using ccap::sched::RoundRobinFlowQueue;
using ccap::sched::SimTime;

CapacityCache::Config cache_config(bool enabled = true) {
    CapacityCache::Config cfg;
    cfg.grid = {0.02, 0.02, 0.40, 0.20};
    cfg.base.max_drift = 8;
    cfg.base.max_insert_run = 4;
    cfg.mc.block_len = 16;
    cfg.mc.num_blocks = 2;
    cfg.mc.threads = 1;
    cfg.enabled = enabled;
    return cfg;
}

ContentionConfig engine_config() {
    ContentionConfig cfg;
    cfg.flows = 192;
    cfg.offered_load = 0.9;
    cfg.ticks = 256;
    cfg.slices = 8;
    cfg.domain_flows = 12;
    cfg.queue_cap = 4;
    cfg.deadline = 32;
    cfg.seed = 77;
    return cfg;
}

// Reference traffic stage: the slice loop driven by a binary event heap of
// self-rescheduling callbacks (the engine's original formulation). Same
// slice bounds, slice budget, per-flow substreams and horizon rules.
std::vector<FlowLoad> heap_reference(const ContentionEngine& engine,
                                     const ContentionConfig& cfg) {
    const double service = engine.service_per_tick();
    const std::size_t slices = std::clamp<std::size_t>(cfg.slices, 1, cfg.flows);
    const double p = std::clamp(
        cfg.offered_load * service / static_cast<double>(cfg.flows), 1e-12, 1.0);
    std::vector<FlowLoad> out(cfg.flows);
    for (std::size_t slice = 0; slice < slices; ++slice) {
        const std::size_t lo = slice * cfg.flows / slices;
        const std::size_t n = (slice + 1) * cfg.flows / slices - lo;
        if (n == 0) continue;
        EventQueue events;
        RoundRobinFlowQueue queue(n, cfg.queue_cap, cfg.deadline);
        const double budget = service * static_cast<double>(n) / static_cast<double>(cfg.flows);
        PacingController pacer({budget, std::max(budget, 1.0)});
        std::vector<ccap::util::Rng> rngs;
        for (std::size_t f = 0; f < n; ++f)
            rngs.emplace_back(ccap::util::substream_seed(cfg.seed, lo + f));

        std::function<void(std::size_t, SimTime)> arrive = [&](std::size_t f, SimTime t) {
            (void)queue.push(f, t);
            const std::uint64_t gap = rngs[f].geometric(p);
            if (gap >= cfg.ticks) return;
            const SimTime next = t + 1 + gap;
            if (next <= cfg.ticks)
                events.schedule_at(next, [&arrive, f](SimTime when) { arrive(f, when); });
        };
        for (std::size_t f = 0; f < n; ++f) {
            const std::uint64_t gap = rngs[f].geometric(p);
            if (gap >= cfg.ticks) continue;
            events.schedule_at(1 + gap, [&arrive, f](SimTime when) { arrive(f, when); });
        }
        std::function<void(SimTime)> tick = [&](SimTime t) {
            pacer.on_tick();
            while (queue.backlog() > 0 && pacer.try_consume()) (void)queue.pop(t);
            if (t < cfg.ticks) events.schedule_at(t + 1, [&tick](SimTime when) { tick(when); });
        };
        events.schedule_at(1, [&tick](SimTime when) { tick(when); });
        events.run_until(cfg.ticks);

        for (std::size_t f = 0; f < n; ++f) {
            const FlowCounters& c = queue.flow(f);
            out[lo + f] = {c.enqueued + c.dropped_overflow, c.served, c.dropped_overflow,
                           c.dropped_expired};
        }
    }
    return out;
}

void expect_reports_identical(const ContentionReport& a, const ContentionReport& b) {
    ASSERT_EQ(a.flows.size(), b.flows.size());
    for (std::size_t f = 0; f < a.flows.size(); ++f) {
        EXPECT_EQ(a.flows[f].load.offered, b.flows[f].load.offered) << "flow " << f;
        EXPECT_EQ(a.flows[f].load.served, b.flows[f].load.served) << "flow " << f;
        EXPECT_EQ(a.flows[f].p_d_eff, b.flows[f].p_d_eff) << "flow " << f;
        EXPECT_EQ(a.flows[f].p_i_eff, b.flows[f].p_i_eff) << "flow " << f;
        EXPECT_EQ(a.flows[f].capacity, b.flows[f].capacity) << "flow " << f;
    }
    EXPECT_EQ(a.total_offered, b.total_offered);
    EXPECT_EQ(a.total_served, b.total_served);
    EXPECT_EQ(a.total_dropped, b.total_dropped);
    EXPECT_EQ(a.aggregate_capacity_per_tick, b.aggregate_capacity_per_tick);
    EXPECT_EQ(a.mean_capacity, b.mean_capacity);
    EXPECT_EQ(a.distinct_nodes, b.distinct_nodes);
}

TEST(ContentionEngineTest, RejectsDegenerateConfigs) {
    CapacityCache cache(cache_config());
    ContentionConfig cfg = engine_config();
    cfg.flows = 0;
    EXPECT_THROW(ContentionEngine(cfg, cache), std::invalid_argument);
    cfg = engine_config();
    cfg.ticks = 0;
    EXPECT_THROW(ContentionEngine(cfg, cache), std::invalid_argument);
    cfg = engine_config();
    cfg.queue_cap = 0;
    EXPECT_THROW(ContentionEngine(cfg, cache), std::invalid_argument);
    cfg = engine_config();
    cfg.domain_flows = 0;
    EXPECT_THROW(ContentionEngine(cfg, cache), std::invalid_argument);
    // A ring's head and size are 32-bit; 2^58 also wrapped n * cap to 0.
    for (const std::size_t cap : {std::size_t{1} << 32, std::size_t{1} << 58}) {
        cfg = engine_config();
        cfg.queue_cap = cap;
        EXPECT_THROW(ContentionEngine(cfg, cache), std::invalid_argument);
    }
}

TEST(ContentionEngineTest, SimulationConservesSymbols) {
    CapacityCache cache(cache_config());
    ContentionEngine engine(engine_config(), cache);
    const std::vector<FlowLoad> loads = engine.simulate();
    ASSERT_EQ(loads.size(), engine_config().flows);
    std::uint64_t offered = 0, accounted = 0;
    for (const FlowLoad& l : loads) {
        offered += l.offered;
        // Served + dropped never exceeds offered (the rest is backlog at
        // the horizon).
        EXPECT_LE(l.served + l.dropped_overflow + l.dropped_expired, l.offered);
        accounted += l.served + l.dropped_overflow + l.dropped_expired;
    }
    EXPECT_GT(offered, 0u);
    EXPECT_LE(accounted, offered);
}

TEST(ContentionEngineTest, SimulationMatchesHeapReference) {
    struct Case {
        std::string name;
        ContentionConfig cfg;
    };
    std::vector<Case> cases;
    cases.push_back({"engine_config", engine_config()});
    {
        ContentionConfig cfg = engine_config();
        cfg.offered_load = 1.3;
        cfg.queue_cap = 4;
        cfg.deadline = 8;
        cases.push_back({"overload_deadline", cfg});
    }
    {
        ContentionConfig cfg = engine_config();
        cfg.flows = 5;  // fewer flows than slices: one flow per slice
        cases.push_back({"flows_below_slices", cfg});
    }
    {
        ContentionConfig cfg = engine_config();
        cfg.flows = 1;
        cases.push_back({"single_flow", cfg});
    }
    {
        ContentionConfig cfg = engine_config();
        cfg.ticks = 100;  // the whole horizon fits inside the wheel
        cases.push_back({"short_horizon", cfg});
    }
    {
        // Mean gap 16000 ticks: most arrivals go through the overflow heap.
        ContentionConfig cfg = engine_config();
        cfg.flows = 16;
        cfg.slices = 2;
        cfg.offered_load = 0.001;
        cfg.ticks = 5 * 4096;
        cases.push_back({"sparse_long_horizon", cfg});
    }
    {
        // Mean gap ~4096 ticks at ~16 arrivals per tick, so heap-migrated
        // and directly appended events often share a tick, including appends
        // made exactly 4095 ticks ahead (the tick a far event migrates). A
        // starved server with tiny queues makes the within-tick order
        // visible in the counters.
        ContentionConfig cfg = engine_config();
        cfg.flows = 65536;
        cfg.slices = 1;
        cfg.service_per_tick = 8.0;
        cfg.offered_load = 2.0;
        cfg.queue_cap = 2;
        cfg.deadline = 64;
        cfg.ticks = 3 * 4096;
        cases.push_back({"mixed_near_far_contended", cfg});
    }
    {
        // Per-flow rate 32/16 = 2 per tick clamps p to 1: every gap is 0,
        // so each flow arrives on every tick.
        ContentionConfig cfg = engine_config();
        cfg.offered_load = 32.0;
        cases.push_back({"p_clamped_to_one", cfg});
    }
    {
        // p clamps to 1e-12: no arrival lands inside the horizon.
        ContentionConfig cfg = engine_config();
        cfg.offered_load = 0.0;
        cases.push_back({"no_load", cfg});
    }

    CapacityCache cache(cache_config());
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const ContentionEngine engine(c.cfg, cache);
        const std::vector<FlowLoad> got = engine.simulate();
        const std::vector<FlowLoad> want = heap_reference(engine, c.cfg);
        ASSERT_EQ(got.size(), want.size());
        std::uint64_t offered = 0;
        for (std::size_t f = 0; f < want.size(); ++f) {
            EXPECT_EQ(got[f].offered, want[f].offered) << "flow " << f;
            EXPECT_EQ(got[f].served, want[f].served) << "flow " << f;
            EXPECT_EQ(got[f].dropped_overflow, want[f].dropped_overflow) << "flow " << f;
            EXPECT_EQ(got[f].dropped_expired, want[f].dropped_expired) << "flow " << f;
            offered += want[f].offered;
        }
        const double rate = c.cfg.offered_load * engine.service_per_tick() /
                            static_cast<double>(c.cfg.flows);
        if (rate >= 1.0) {
            EXPECT_EQ(offered, c.cfg.flows * c.cfg.ticks);  // one arrival per flow per tick
        } else if (rate > 0.0) {
            EXPECT_GT(offered, 0u);
        } else {
            EXPECT_EQ(offered, 0u);
        }
    }
}

// FNV-1a over every flow's counters, in flow order.
std::uint64_t loads_digest(const std::vector<FlowLoad>& loads) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const FlowLoad& l : loads) {
        for (const std::uint64_t v : {l.offered, l.served, l.dropped_overflow, l.dropped_expired}) {
            for (int byte = 0; byte < 8; ++byte) {
                h ^= (v >> (8 * byte)) & 0xff;
                h *= 0x100000001b3ULL;
            }
        }
    }
    return h;
}

// Digests of simulate() recorded from the log-per-arrival draw with a
// timestamp written on every push. The heap reference above shares the
// queue with the engine, so these also pin what both sides share.
TEST(ContentionEngineTest, SimulationMatchesRecordedDigests) {
    struct Case {
        std::string name;
        ContentionConfig cfg;
        std::uint64_t offered;
        std::uint64_t digest;
    };
    ContentionConfig base;  // ticks 1024, 64 slices, queue cap 16, seed 1
    base.flows = 20000;
    base.offered_load = 1.1;
    ContentionConfig deadline = base;
    deadline.offered_load = 1.3;
    deadline.deadline = 8;
    deadline.queue_cap = 4;
    const std::vector<Case> cases = {
        {"load_1.1_no_deadline", base, 1409000, 0x62b9925b1fe533cbULL},
        {"load_1.3_deadline_8_cap_4", deadline, 1663784, 0x14db5191596216bbULL},
    };
    CapacityCache cache(cache_config());
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        const std::vector<FlowLoad> loads = ContentionEngine(c.cfg, cache).simulate();
        std::uint64_t offered = 0;
        for (const FlowLoad& l : loads) offered += l.offered;
        EXPECT_EQ(offered, c.offered);
        EXPECT_EQ(loads_digest(loads), c.digest);
    }
}

TEST(ContentionEngineTest, LongHorizonCompletesAndConservesSymbols) {
    // 2^22 ticks, ~1000x the wheel: calendar memory must not scale with
    // the horizon, and arrivals must keep flowing after every wrap.
    CapacityCache cache(cache_config());
    ContentionConfig cfg = engine_config();
    cfg.flows = 2;
    cfg.slices = 1;
    cfg.ticks = SimTime{1} << 22;
    const ContentionEngine engine(cfg, cache);
    const std::vector<FlowLoad> loads = engine.simulate();
    ASSERT_EQ(loads.size(), 2u);
    const double p = cfg.offered_load * engine.service_per_tick() / 2.0;
    for (const FlowLoad& l : loads) {
        const std::uint64_t settled = l.served + l.dropped_overflow + l.dropped_expired;
        ASSERT_LE(settled, l.offered);
        // offered == served + dropped + backlog, and backlog fits the queue.
        EXPECT_LE(l.offered - settled, cfg.queue_cap);
        EXPECT_NEAR(static_cast<double>(l.offered), p * static_cast<double>(cfg.ticks),
                    0.01 * p * static_cast<double>(cfg.ticks));
    }
}

TEST(ContentionEngineTest, FractionalSliceBudgetsStillServe) {
    // Many slices over few flows gives each slice a fractional token budget
    // per tick (here 25 * ~6/400 ~= 0.39). The pacer must bank budget across
    // ticks up to one symbol's cost, not starve behind a sub-cost burst cap.
    CapacityCache cache(cache_config());
    ContentionConfig cfg = engine_config();
    cfg.flows = 400;
    cfg.slices = 64;
    cfg.offered_load = 0.9;
    const ContentionReport report = ContentionEngine(cfg, cache).run();
    EXPECT_GT(report.total_offered, 0u);
    EXPECT_GT(report.total_served, 0u);
    // A 0.9-loaded system with banked fractional budgets should serve a
    // substantial share of what is offered, not a token trickle.
    EXPECT_GT(report.total_served, report.total_offered / 4);
}

TEST(ContentionEngineTest, MapEffectiveHardensDropsIntoDeletions) {
    CapacityCache cache(cache_config());
    ContentionEngine engine(engine_config(), cache);

    FlowLoad clean{100, 100, 0, 0};
    const FlowOutcome base = engine.map_effective(clean, 0);
    EXPECT_DOUBLE_EQ(base.p_d_eff, cache.config().base.p_d);
    EXPECT_DOUBLE_EQ(base.p_i_eff, cache.config().base.p_i);

    FlowLoad lossy{100, 75, 20, 5};
    const FlowOutcome hit = engine.map_effective(lossy, 0);
    EXPECT_GT(hit.p_d_eff, base.p_d_eff);
    EXPECT_DOUBLE_EQ(hit.p_d_eff, 0.25);  // 25 drops out of 100 offered, base p_d = 0

    const FlowOutcome noisy = engine.map_effective(clean, /*foreign=*/512);
    EXPECT_GT(noisy.p_i_eff, base.p_i_eff);
    // Both axes clamp to the capacity grid.
    FlowLoad dead{100, 0, 100, 0};
    EXPECT_LE(engine.map_effective(dead, 1u << 20).p_d_eff, cache.config().grid.pd_max);
    EXPECT_LE(engine.map_effective(dead, 1u << 20).p_i_eff, cache.config().grid.pi_max);
}

TEST(ContentionParallelTest, SimulationBitIdenticalAcrossThreadCounts) {
    CapacityCache cache(cache_config());
    ContentionConfig cfg = engine_config();
    cfg.threads = 1;
    const std::vector<FlowLoad> serial = ContentionEngine(cfg, cache).simulate();
    for (unsigned threads : {2u, 8u}) {
        cfg.threads = threads;
        const std::vector<FlowLoad> parallel = ContentionEngine(cfg, cache).simulate();
        ASSERT_EQ(parallel.size(), serial.size());
        for (std::size_t f = 0; f < serial.size(); ++f) {
            EXPECT_EQ(parallel[f].offered, serial[f].offered) << "flow " << f;
            EXPECT_EQ(parallel[f].served, serial[f].served) << "flow " << f;
            EXPECT_EQ(parallel[f].dropped_overflow, serial[f].dropped_overflow);
            EXPECT_EQ(parallel[f].dropped_expired, serial[f].dropped_expired);
        }
    }
}

TEST(ContentionParallelTest, FullRunBitIdenticalAcrossThreadCounts) {
    ContentionConfig cfg = engine_config();
    cfg.threads = 1;
    CapacityCache cache1(cache_config());
    const ContentionReport serial = ContentionEngine(cfg, cache1).run();

    cfg.threads = 8;
    CapacityCache cache8(cache_config());
    const ContentionReport parallel = ContentionEngine(cfg, cache8).run();
    expect_reports_identical(serial, parallel);
}

TEST(ContentionEngineTest, CacheOnAndOffAreBitIdenticalInExactMode) {
    const ContentionConfig cfg = engine_config();
    CapacityCache cached(cache_config(true));
    CapacityCache uncached(cache_config(false));
    const ContentionReport with_cache = ContentionEngine(cfg, cached).run();
    const ContentionReport without_cache = ContentionEngine(cfg, uncached).run();
    expect_reports_identical(with_cache, without_cache);
    EXPECT_GT(with_cache.cache.hits, 0u);
    EXPECT_EQ(without_cache.cache.hits, 0u);
}

TEST(ContentionEngineTest, DedupAndNaivePathsAreBitIdentical) {
    ContentionConfig cfg = engine_config();
    cfg.flows = 96;  // keep the naive per-flow pass quick
    CapacityCache fast_cache(cache_config());
    cfg.dedup_nodes = true;
    const ContentionReport fast = ContentionEngine(cfg, fast_cache).run();

    CapacityCache naive_cache(cache_config(false));
    cfg.dedup_nodes = false;
    const ContentionReport naive = ContentionEngine(cfg, naive_cache).run();
    expect_reports_identical(fast, naive);
    EXPECT_LT(fast.distinct_nodes, cfg.flows);  // the dedup actually collapsed work
}

TEST(ContentionEngineTest, RepeatedRunsOnASharedCacheAreIdentical) {
    // Second run hits a warm cache everywhere; values must not move.
    CapacityCache cache(cache_config());
    const ContentionConfig cfg = engine_config();
    const ContentionReport first = ContentionEngine(cfg, cache).run();
    const ContentionReport second = ContentionEngine(cfg, cache).run();
    expect_reports_identical(first, second);
    EXPECT_EQ(second.cache.misses, 0u);
}

TEST(ContentionEngineTest, OverloadRaisesEffectiveDeletionsAndCutsCapacity) {
    CapacityCache cache(cache_config());
    ContentionConfig cfg = engine_config();
    cfg.offered_load = 0.2;
    const ContentionReport light = ContentionEngine(cfg, cache).run();
    cfg.offered_load = 2.0;
    const ContentionReport heavy = ContentionEngine(cfg, cache).run();

    EXPECT_GT(heavy.total_offered, light.total_offered);
    EXPECT_GT(heavy.total_dropped, light.total_dropped);
    EXPECT_GT(heavy.mean_pd_eff, light.mean_pd_eff);
    EXPECT_LT(heavy.mean_capacity, light.mean_capacity);
}

TEST(ContentionEngineTest, InterpolatedModeCarriesCertifiedBounds) {
    ContentionConfig cfg = engine_config();
    cfg.quantize_exact = false;
    CapacityCache cache(cache_config());
    const ContentionReport report = ContentionEngine(cfg, cache).run();
    EXPECT_GE(report.aggregate_err_bound_per_tick, 0.0);
    for (const FlowOutcome& o : report.flows) {
        EXPECT_GE(o.err_bound, 0.0);
        EXPECT_GE(o.capacity, 0.0);
    }
    // Interpolation stays within the certified distance of the quantized
    // answer (the node estimate is inside the same bracket).
    cfg.quantize_exact = true;
    const ContentionReport exact = ContentionEngine(cfg, cache).run();
    const double diff = report.aggregate_capacity_per_tick - exact.aggregate_capacity_per_tick;
    EXPECT_LE(std::abs(diff), report.aggregate_err_bound_per_tick + 1e-12);
}

}  // namespace
