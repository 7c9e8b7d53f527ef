#include "ccap/sched/contention.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>

#include "ccap/sched/flow_queue.hpp"
#include "ccap/sched/pacing.hpp"
#include "ccap/util/rng.hpp"
#include "ccap/util/thread_pool.hpp"

namespace ccap::sched {

namespace {

// One slice's event calendar: a ring of kWheel per-tick FIFO lists over
// nodes that each have at most one pending event. An event fewer than
// kWheel ticks ahead is appended to its tick's bucket; a farther one waits
// in a small (when, seq) min-heap and moves into its bucket at the start of
// tick when - kWheel + 1. Memory is O(nodes + kWheel), whatever the horizon.
//
// Draining a bucket in list order replays the (when, seq) order of a
// binary event heap exactly: appends to one bucket happen in scheduling
// order, and a far event for tick u was scheduled at or before u - kWheel,
// so it migrates (at the start of tick u - kWheel + 1) before any direct
// append for u can happen. The caller must visit every tick in order and
// schedule only strictly future events.
class TimingWheel {
public:
    explicit TimingWheel(std::size_t nodes)
        : head_(kWheel, kNil), tail_(kWheel, kNil), next_(nodes, kNil) {}

    void schedule(SimTime now, SimTime when, std::uint32_t node) {
        if (when - now < kWheel) {
            append(when, node);
        } else {
            far_.push_back({when, far_seq_++, node});
            std::push_heap(far_.begin(), far_.end(), Later{});
        }
    }

    /// Run `fire(node)` for every event at tick `t`, in scheduling order.
    /// `fire` may schedule events for later ticks.
    template <typename Fire>
    void drain(SimTime t, Fire&& fire) {
        while (!far_.empty() && far_.front().when - t < kWheel) {
            std::pop_heap(far_.begin(), far_.end(), Later{});
            append(far_.back().when, far_.back().node);
            far_.pop_back();
        }
        // Nothing fired at t can land in t's bucket (that takes a delay of
        // kWheel, which goes to the heap), so the list can be unlinked first.
        const std::size_t b = t & (kWheel - 1);
        std::uint32_t node = head_[b];
        head_[b] = tail_[b] = kNil;
        while (node != kNil) {
            const std::uint32_t after = next_[node];  // before fire relinks node
            fire(node);
            node = after;
        }
    }

private:
    static constexpr SimTime kWheel = 4096;  // power of two
    static constexpr std::uint32_t kNil = 0xffffffffu;

    struct FarEvent {
        SimTime when;
        std::uint64_t seq;
        std::uint32_t node;
    };
    struct Later {
        bool operator()(const FarEvent& a, const FarEvent& b) const noexcept {
            return a.when != b.when ? a.when > b.when : a.seq > b.seq;
        }
    };

    void append(SimTime when, std::uint32_t node) {
        const std::size_t b = when & (kWheel - 1);
        next_[node] = kNil;
        if (tail_[b] == kNil)
            head_[b] = node;
        else
            next_[tail_[b]] = node;
        tail_[b] = node;
    }

    std::vector<std::uint32_t> head_, tail_, next_;
    std::vector<FarEvent> far_;
    std::uint64_t far_seq_ = 0;
};

// Largest gap table simulate() builds: 4096 bisections of the gap formula.
constexpr SimTime kGapTableCap = 4096;

}  // namespace

ContentionEngine::ContentionEngine(const ContentionConfig& cfg, info::CapacityCache& cache)
    : cfg_(cfg), cache_(&cache) {
    if (cfg_.flows == 0) throw std::invalid_argument("ContentionEngine: flows must be >= 1");
    if (cfg_.ticks == 0) throw std::invalid_argument("ContentionEngine: ticks must be >= 1");
    if (!(cfg_.offered_load >= 0.0))
        throw std::invalid_argument("ContentionEngine: offered_load must be >= 0");
    if (!(cfg_.collision_rate >= 0.0))
        throw std::invalid_argument("ContentionEngine: collision_rate must be >= 0");
    if (cfg_.queue_cap == 0)
        throw std::invalid_argument("ContentionEngine: queue_cap must be >= 1");
    if (cfg_.queue_cap > UINT32_MAX)
        throw std::invalid_argument("ContentionEngine: queue_cap must be < 2^32");
    if (cfg_.domain_flows == 0)
        throw std::invalid_argument("ContentionEngine: domain_flows must be >= 1");
    slices_ = std::clamp<std::size_t>(cfg_.slices, 1, cfg_.flows);
    service_ = cfg_.service_per_tick > 0.0
                   ? cfg_.service_per_tick
                   : std::max(1.0, static_cast<double>(cfg_.flows) / 16.0);
}

void ContentionEngine::simulate_slice(std::size_t slice, const util::GeometricTable& gaps,
                                      std::vector<FlowLoad>& out) const {
    // Contiguous flow range of this slice; disjoint across slices, so the
    // parallel_for over slices writes to disjoint ranges of `out`.
    const std::size_t lo = slice * cfg_.flows / slices_;
    const std::size_t hi = (slice + 1) * cfg_.flows / slices_;
    const std::size_t n = hi - lo;
    if (n == 0) return;

    RoundRobinFlowQueue queue(n, cfg_.queue_cap, cfg_.deadline);
    // The slice serves its population share of the aggregate budget. The
    // burst cap must reach one symbol's cost: a slice whose share is
    // fractional (many slices, few flows) banks budget across ticks and
    // serves a symbol every ~1/budget ticks instead of starving forever
    // behind a cap smaller than the cost of serving anything.
    const double slice_budget =
        service_ * static_cast<double>(n) / static_cast<double>(cfg_.flows);
    PacingController pacer({slice_budget, std::max(slice_budget, 1.0)});

    std::vector<util::Rng> rngs;
    rngs.reserve(n);
    for (std::size_t f = 0; f < n; ++f)
        rngs.emplace_back(util::substream_seed(cfg_.seed, static_cast<std::uint64_t>(lo + f)));

    // Nodes 0..n-1 are the flows, node n is the service tick. Each has at
    // most one pending event, so the wheel holds at most n + 1.
    TimingWheel wheel(n + 1);
    const auto tick_node = static_cast<std::uint32_t>(n);

    // Sample flow f's next inter-arrival gap from its own substream and
    // schedule the arrival unless it falls past the horizon. Gaps are drawn
    // only by the flow that owns the Rng, so the draw order — and hence the
    // whole trajectory — is independent of event interleaving.
    const auto schedule_arrival = [&](std::uint32_t f, SimTime now) {
        const std::uint64_t gap = gaps.draw(rngs[f]);
        if (gap < cfg_.ticks - now) wheel.schedule(now, now + 1 + gap, f);
    };
    for (std::size_t f = 0; f < n; ++f) schedule_arrival(static_cast<std::uint32_t>(f), 0);
    wheel.schedule(0, 1, tick_node);

    // The service tick fires every tick, so the loop visits 1..ticks.
    for (SimTime t = 1;; ++t) {
        wheel.drain(t, [&](std::uint32_t node) {
            if (node != tick_node) {
                // Arrival: enqueue one symbol, then schedule the next.
                (void)queue.push(node, t);
                schedule_arrival(node, t);
                return;
            }
            // Service tick: deposit the slice budget, then drain round-robin
            // until the budget or the backlog runs out.
            pacer.on_tick();
            while (queue.backlog() > 0 && pacer.try_consume()) (void)queue.pop(t);
            if (t < cfg_.ticks) wheel.schedule(t, t + 1, tick_node);
        });
        if (t == cfg_.ticks) break;
    }

    for (std::size_t f = 0; f < n; ++f) {
        const FlowCounters& c = queue.flow(f);
        FlowLoad& load = out[lo + f];
        load.offered = c.enqueued + c.dropped_overflow;
        load.served = c.served;
        load.dropped_overflow = c.dropped_overflow;
        load.dropped_expired = c.dropped_expired;
    }
}

std::vector<FlowLoad> ContentionEngine::simulate() const {
    // Per-flow Bernoulli arrival probability per tick, sized so the whole
    // population offers `offered_load` times the aggregate service rate.
    const double lambda = cfg_.offered_load * service_ / static_cast<double>(cfg_.flows);
    const double p = std::clamp(lambda, 1e-12, 1.0);
    // One gap table for every slice, read-only: steps up to a gap of ticks
    // (a longer gap never lands) or kGapTableCap. At p = 1 every gap is 0,
    // one draw each.
    const util::GeometricTable gaps(
        std::log1p(-p), static_cast<std::uint32_t>(std::min(cfg_.ticks, kGapTableCap)));
    std::vector<FlowLoad> out(cfg_.flows);
    util::parallel_for(
        util::ThreadPool::shared(), slices_,
        [&](std::size_t slice) { simulate_slice(slice, gaps, out); }, cfg_.threads);
    return out;
}

FlowOutcome ContentionEngine::map_effective(const FlowLoad& load, std::uint64_t foreign) const {
    FlowOutcome o;
    o.load = load;
    const info::CapacityCache::Config& cc = cache_->config();
    const std::uint64_t dropped = load.dropped_overflow + load.dropped_expired;
    double pd = cc.base.p_d;
    if (load.offered > 0)
        pd += (1.0 - cc.base.p_d) * static_cast<double>(dropped) /
              static_cast<double>(load.offered);
    const double pi = cc.base.p_i + cfg_.collision_rate * static_cast<double>(foreign) /
                                        static_cast<double>(cfg_.ticks);
    o.p_d_eff = std::min(pd, cc.grid.pd_max);
    o.p_i_eff = std::min(pi, cc.grid.pi_max);
    o.p_s_eff = cc.base.p_s;
    return o;
}

ContentionReport ContentionEngine::run() const {
    ContentionReport report;
    const util::ShardCacheStats before = cache_->stats();

    // Stage 1: traffic.
    const std::vector<FlowLoad> loads = simulate();

    // Collision-domain serve totals; a flow's foreign exposure is the
    // domain's served volume minus its own.
    const std::size_t domains = (cfg_.flows + cfg_.domain_flows - 1) / cfg_.domain_flows;
    std::vector<std::uint64_t> domain_served(domains, 0);
    for (std::size_t f = 0; f < cfg_.flows; ++f)
        domain_served[f / cfg_.domain_flows] += loads[f].served;

    // Stage 2: the load -> effective-parameter map.
    report.flows.resize(cfg_.flows);
    for (std::size_t f = 0; f < cfg_.flows; ++f) {
        const std::uint64_t foreign = domain_served[f / cfg_.domain_flows] - loads[f].served;
        report.flows[f] = map_effective(loads[f], foreign);
    }

    // Stage 3: capacity. Quantize each flow onto the grid; distinct nodes in
    // first-appearance order (flow order — deterministic) form the work set.
    std::vector<info::CapacityKey> keys(cfg_.flows);
    std::vector<info::CapacityKey> unique;
    {
        std::unordered_map<info::CapacityKey, std::size_t, info::CapacityKeyHash> seen;
        for (std::size_t f = 0; f < cfg_.flows; ++f) {
            keys[f] = cache_->quantize(report.flows[f].p_d_eff, report.flows[f].p_i_eff);
            if (seen.emplace(keys[f], unique.size()).second) unique.push_back(keys[f]);
        }
    }
    report.distinct_nodes = unique.size();

    if (cfg_.quantize_exact && cfg_.dedup_nodes) {
        // Fast path: one MC evaluation per distinct node, batched over the
        // pool, then O(1) lookups per flow.
        cache_->ensure(unique, cfg_.threads);
        for (const info::CapacityKey& k : unique) {
            const info::MiEstimate est = cache_->at(k);
            report.mc_blocks_spent += est.blocks;
            report.mc_converged = report.mc_converged && est.converged;
        }
        for (std::size_t f = 0; f < cfg_.flows; ++f)
            report.flows[f].capacity = cache_->at(keys[f]).rate;
    } else if (cfg_.quantize_exact) {
        // Naive baseline: one MC evaluation per *flow*, no dedup, no memo
        // reuse intended (pair with a disabled cache). Node seeds derive
        // from the key, so the values — and the aggregate — are
        // bit-identical to the fast path.
        std::vector<info::CapacityPoint> points;
        points.reserve(cfg_.flows);
        for (std::size_t f = 0; f < cfg_.flows; ++f)
            points.push_back({cache_->node_params(keys[f]), cache_->node_seed(keys[f])});
        info::McOptions opts = cache_->node_mc_options();
        opts.threads = cfg_.threads;
        const std::vector<info::MiEstimate> values =
            info::iid_mutual_information_rate_points(points, opts);
        for (std::size_t f = 0; f < cfg_.flows; ++f) {
            report.flows[f].capacity = values[f].rate;
            report.mc_blocks_spent += values[f].blocks;
            report.mc_converged = report.mc_converged && values[f].converged;
        }
    } else {
        // Interpolated mode: warm the nearest nodes in one batched pass,
        // then bilinear per flow with a certified error bound.
        if (cfg_.dedup_nodes) cache_->ensure(unique, cfg_.threads);
        for (std::size_t f = 0; f < cfg_.flows; ++f) {
            const info::CapacityCache::Interpolated v =
                cache_->interpolate(report.flows[f].p_d_eff, report.flows[f].p_i_eff);
            report.flows[f].capacity = v.rate;
            report.flows[f].err_bound = v.err_bound;
            report.mc_blocks_spent += v.blocks;
            report.mc_converged = report.mc_converged && v.converged;
        }
    }

    // Aggregate in flow order (deterministic fold).
    const double ticks = static_cast<double>(cfg_.ticks);
    std::uint64_t served_flows = 0;
    for (std::size_t f = 0; f < cfg_.flows; ++f) {
        const FlowOutcome& o = report.flows[f];
        report.total_offered += o.load.offered;
        report.total_served += o.load.served;
        report.total_dropped += o.load.dropped_overflow + o.load.dropped_expired;
        const double share = static_cast<double>(o.load.served) / ticks;
        report.aggregate_capacity_per_tick += o.capacity * share;
        report.aggregate_err_bound_per_tick += o.err_bound * share;
        if (o.load.served > 0) {
            ++served_flows;
            report.mean_pd_eff += o.p_d_eff;
            report.mean_pi_eff += o.p_i_eff;
            report.mean_capacity += o.capacity;
        }
    }
    if (served_flows > 0) {
        report.mean_pd_eff /= static_cast<double>(served_flows);
        report.mean_pi_eff /= static_cast<double>(served_flows);
        report.mean_capacity /= static_cast<double>(served_flows);
    }

    const util::ShardCacheStats after = cache_->stats();
    report.cache.hits = after.hits - before.hits;
    report.cache.misses = after.misses - before.misses;
    report.cache.evictions = after.evictions - before.evictions;
    report.cache.entries = after.entries;
    return report;
}

}  // namespace ccap::sched
