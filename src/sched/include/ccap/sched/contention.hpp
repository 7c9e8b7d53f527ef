// Sharded multi-tenant contention engine: capacity under load.
//
// The paper models one covert sender/receiver pair; production means
// thousands-to-millions of covert flows sharing one host resource, where
// contention itself sets the effective channel parameters (ROADMAP item 3).
// This engine closes that loop in three deterministic stages:
//
//   1. SIMULATE.  Flows are partitioned into contiguous *slices* of one
//      shared resource, each simulated independently: a PacingController
//      deposits the slice's service budget per tick and a
//      RoundRobinFlowQueue drains one symbol per backlogged flow per visit.
//      A slice's events run on a timing wheel: a ring of 4096 per-tick FIFO
//      lists over the flows plus one service-tick node, with a small
//      (when, seq) heap for events 4096 or more ticks ahead that joins its
//      list at the start of tick when - 4095, before any direct append to
//      that tick is possible. Each tick drains its list in order, which is
//      exactly a binary event heap's (when, seq) order (THEORY §13), in
//      O(flows + 4096) memory per slice whatever the horizon.
//      Per-flow arrivals are Bernoulli-per-tick processes sampled as
//      geometric inter-arrival gaps from a per-flow SplitMix64 substream of
//      the root seed (the THEORY §10 seeding discipline), so the slice
//      traffic — and every counter below — is a pure function of (config,
//      seed).
//      Each gap inverts one 53-bit draw (util::geometric_gap_of_bits),
//      read off one shared util::GeometricTable of the inversion's step
//      points (THEORY §13): the same gap, with no `log` inside the table.
//      Slices run across the shared ThreadPool; they touch disjoint flow
//      ranges, so results are bit-identical at any thread count.
//
//   2. MAP.  Per-flow counters become effective channel parameters
//      (THEORY §13): queue drops harden into deletions,
//          P_d_eff = P_d + (1 - P_d) * dropped / offered,
//      and foreign traffic in the flow's collision domain injects spurious
//      symbols at the receiver,
//          P_i_eff = P_i + kappa * foreign_serves / ticks,
//      both clamped to the capacity grid; P_s_eff = P_s (contention delays
//      and drops symbols, it does not rewrite their content).
//
//   3. EVALUATE.  Flows collapse onto a small set of quantized (P_d, P_i)
//      grid nodes; each distinct node is one Monte-Carlo lattice evaluation
//      routed through the SIMD BatchLatticeEngine and memoized in the
//      CapacityCache (node seeds derive from node keys, so cached, uncached
//      and per-flow-naive evaluation are bit-identical). Per-flow and
//      aggregate capacity fold in flow order.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ccap/info/capacity_cache.hpp"
#include "ccap/sched/event_queue.hpp"
#include "ccap/util/shard_cache.hpp"

namespace ccap::util {
class GeometricTable;
}  // namespace ccap::util

namespace ccap::sched {

struct ContentionConfig {
    std::size_t flows = 1024;    ///< concurrent covert flows
    double offered_load = 0.8;   ///< aggregate arrival rate / aggregate service rate
    SimTime ticks = 1024;        ///< simulated pacing ticks
    /// Aggregate symbols the host serves per tick across all slices.
    /// 0 = flows / 16.0 (so a flow is served about once per 16 ticks at
    /// full load), clamped to at least 1.
    double service_per_tick = 0.0;
    std::size_t slices = 64;        ///< independent resource slices (flows split contiguously)
    std::size_t domain_flows = 16;  ///< flows per collision domain (insertion coupling)
    std::size_t queue_cap = 16;     ///< per-flow backlog cap (overflow => deletion)
    SimTime deadline = 0;           ///< symbol staleness bound in ticks (0 = none)
    /// Probability that one foreign serve in the collision domain lands as
    /// a spurious symbol at this flow's receiver (per tick of exposure).
    double collision_rate = 0.10;
    /// Snap each flow to the nearest grid node (bit-identity mode). false =
    /// bilinear interpolation with a certified per-flow error bound.
    bool quantize_exact = true;
    /// true = evaluate one capacity point per *distinct grid node* (the
    /// whole point of the cache). false = naive per-flow evaluation, one
    /// point per flow — the bench baseline. Values are identical.
    bool dedup_nodes = true;
    unsigned threads = 0;     ///< worker cap; 0 = hardware. Results invariant.
    std::uint64_t seed = 1;   ///< root seed for the per-flow substreams
};

/// Raw per-flow traffic counters out of the simulation stage.
struct FlowLoad {
    std::uint64_t offered = 0;
    std::uint64_t served = 0;
    std::uint64_t dropped_overflow = 0;
    std::uint64_t dropped_expired = 0;
};

/// Per-flow outcome after the map + evaluate stages.
struct FlowOutcome {
    FlowLoad load;
    double p_d_eff = 0.0;
    double p_i_eff = 0.0;
    double p_s_eff = 0.0;
    double capacity = 0.0;   ///< bits per channel use at the effective params
    double err_bound = 0.0;  ///< certified interpolation bound (0 when exact)
};

struct ContentionReport {
    std::vector<FlowOutcome> flows;
    std::uint64_t total_offered = 0;
    std::uint64_t total_served = 0;
    std::uint64_t total_dropped = 0;
    double mean_pd_eff = 0.0;           ///< served-flow mean
    double mean_pi_eff = 0.0;
    double mean_capacity = 0.0;         ///< served-flow mean, bits per use
    /// Sum over flows of capacity * served / ticks: covert bits the whole
    /// tenant population pushes through the shared resource per tick.
    double aggregate_capacity_per_tick = 0.0;
    /// Sum of per-flow err_bound * served / ticks (0 in exact mode).
    double aggregate_err_bound_per_tick = 0.0;
    std::size_t distinct_nodes = 0;     ///< grid nodes actually evaluated
    /// Monte-Carlo blocks backing this run's capacity values: the sum over
    /// distinct evaluated nodes in the dedup-exact path, over per-flow
    /// evaluations in the naive path, and over each flow's backing corner
    /// nodes in interpolated mode. With an adaptive cache config
    /// (target_interp_err / mc.target_sem) this is where the saved blocks
    /// show up; in fixed mode it is just num_blocks times the node count.
    std::uint64_t mc_blocks_spent = 0;
    /// Every backing node met its SEM target (vacuously true in fixed mode).
    bool mc_converged = true;
    util::ShardCacheStats cache;        ///< cache stats delta for this run
};

class ContentionEngine {
public:
    ContentionEngine(const ContentionConfig& cfg, info::CapacityCache& cache);

    /// Stage 1 alone (exposed for tests): per-flow counters, bit-identical
    /// at any thread count.
    [[nodiscard]] std::vector<FlowLoad> simulate() const;

    /// Stage 2 alone: the offered-load -> effective-parameter map for one
    /// flow (THEORY §13). `foreign` is the number of symbols served to
    /// other flows of the same collision domain.
    [[nodiscard]] FlowOutcome map_effective(const FlowLoad& load,
                                            std::uint64_t foreign) const;

    /// The full pipeline: simulate -> map -> evaluate.
    [[nodiscard]] ContentionReport run() const;

    /// Resolved aggregate service rate (config default applied).
    [[nodiscard]] double service_per_tick() const noexcept { return service_; }

private:
    void simulate_slice(std::size_t slice, const util::GeometricTable& gaps,
                        std::vector<FlowLoad>& out) const;

    ContentionConfig cfg_;
    info::CapacityCache* cache_;
    double service_ = 0.0;
    std::size_t slices_ = 0;
};

}  // namespace ccap::sched
