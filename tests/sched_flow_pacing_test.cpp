#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <deque>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "ccap/sched/flow_queue.hpp"
#include "ccap/sched/pacing.hpp"
#include "ccap/util/rng.hpp"

namespace {

using ccap::sched::FlowCounters;
using ccap::sched::PacingConfig;
using ccap::sched::PacingController;
using ccap::sched::RoundRobinFlowQueue;
using ccap::sched::SimTime;

TEST(PacingControllerTest, RejectsNonPositiveBudget) {
    EXPECT_THROW(PacingController({0.0, 0.0}), std::invalid_argument);
    EXPECT_THROW(PacingController({-1.0, 0.0}), std::invalid_argument);
}

TEST(PacingControllerTest, BudgetAccruesPerTickAndSpends) {
    PacingController pacer({2.0, 0.0});
    EXPECT_FALSE(pacer.try_consume());  // no budget before the first tick
    pacer.on_tick();
    EXPECT_TRUE(pacer.try_consume());
    EXPECT_TRUE(pacer.try_consume());
    EXPECT_FALSE(pacer.try_consume());  // 2 tokens per tick, not 3
}

TEST(PacingControllerTest, IdleBudgetClampsToBurstCap) {
    PacingController pacer({1.0, 3.0});
    for (int t = 0; t < 10; ++t) pacer.on_tick();  // idle ticks bank up to the cap
    EXPECT_TRUE(pacer.try_consume());
    EXPECT_TRUE(pacer.try_consume());
    EXPECT_TRUE(pacer.try_consume());
    EXPECT_FALSE(pacer.try_consume());
}

TEST(PacingControllerTest, DefaultBurstCapIsOneTick) {
    PacingController pacer({2.5, 0.0});
    for (int t = 0; t < 4; ++t) pacer.on_tick();
    // burst_budget = 0 -> budget_per_tick: exactly 2.5 tokens are banked.
    EXPECT_TRUE(pacer.try_consume(2.5));
    EXPECT_FALSE(pacer.try_consume(0x1p-40));
}

TEST(PacingControllerTest, FractionalCosts) {
    PacingController pacer({1.0, 0.0});
    pacer.on_tick();
    EXPECT_TRUE(pacer.try_consume(0.25));
    EXPECT_TRUE(pacer.try_consume(0.75));
    EXPECT_FALSE(pacer.try_consume(0.25));
}

TEST(RoundRobinFlowQueueTest, ServesOldestSymbolPerFlowRoundRobin) {
    // Arrival ticks are kept only with a deadline (here one no symbol
    // reaches); without one, pop reports 0.
    for (const SimTime deadline : {SimTime{0}, SimTime{100}}) {
        SCOPED_TRACE("deadline " + std::to_string(deadline));
        RoundRobinFlowQueue q(3, 4, deadline);
        EXPECT_TRUE(q.push(0, 1));
        EXPECT_TRUE(q.push(0, 2));
        EXPECT_TRUE(q.push(2, 3));
        EXPECT_EQ(q.backlog(), 3u);

        auto a = q.pop(5);
        auto b = q.pop(5);
        auto c = q.pop(5);
        ASSERT_TRUE(a && b && c);
        // Round-robin: flow 0 gives its oldest, then flow 2, then flow 0 again.
        EXPECT_EQ(a->flow, 0u);
        EXPECT_EQ(b->flow, 2u);
        EXPECT_EQ(c->flow, 0u);
        EXPECT_EQ(a->enqueued_at, deadline != 0 ? 1u : 0u);
        EXPECT_EQ(b->enqueued_at, deadline != 0 ? 3u : 0u);
        EXPECT_EQ(c->enqueued_at, deadline != 0 ? 2u : 0u);
        EXPECT_FALSE(q.pop(5).has_value());
        EXPECT_EQ(q.backlog(), 0u);
    }
}

TEST(RoundRobinFlowQueueTest, RejectsDegenerateShapes) {
    EXPECT_THROW(RoundRobinFlowQueue(0, 4), std::invalid_argument);
    EXPECT_THROW(RoundRobinFlowQueue(3, 0), std::invalid_argument);
    // A ring's head and size are 32-bit.
    EXPECT_THROW(RoundRobinFlowQueue(3, std::size_t{1} << 32), std::invalid_argument);
    EXPECT_THROW(RoundRobinFlowQueue(64, std::size_t{1} << 58, 8), std::invalid_argument);
}

TEST(RoundRobinFlowQueueTest, HeavyFlowCannotStarveNeighbours) {
    RoundRobinFlowQueue q(2, 8);
    for (int i = 0; i < 8; ++i) EXPECT_TRUE(q.push(0, 1));
    EXPECT_TRUE(q.push(1, 1));
    std::vector<std::size_t> order;
    for (int i = 0; i < 3; ++i) order.push_back(q.pop(2)->flow);
    // Flow 1's single symbol is served on the second visit, not ninth.
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 0}));
}

TEST(RoundRobinFlowQueueTest, OverflowDropsAreCounted) {
    RoundRobinFlowQueue q(1, 2);
    EXPECT_TRUE(q.push(0, 1));
    EXPECT_TRUE(q.push(0, 1));
    EXPECT_FALSE(q.push(0, 2));  // ring full
    EXPECT_EQ(q.flow(0).dropped_overflow, 1u);
    EXPECT_EQ(q.flow(0).enqueued, 2u);
    EXPECT_EQ(q.backlog(), 2u);
}

TEST(RoundRobinFlowQueueTest, ExpiredHeadsDropLazilyAtServeTime) {
    RoundRobinFlowQueue q(1, 4, /*deadline=*/2);
    EXPECT_TRUE(q.push(0, 1));
    EXPECT_TRUE(q.push(0, 9));
    // At t=10 the first symbol is 9 ticks old (> 2): dropped, second served.
    auto served = q.pop(10);
    ASSERT_TRUE(served.has_value());
    EXPECT_EQ(served->enqueued_at, 9u);
    EXPECT_EQ(q.flow(0).dropped_expired, 1u);
    EXPECT_EQ(q.flow(0).served, 1u);
}

TEST(RoundRobinFlowQueueTest, WholeBacklogCanExpire) {
    RoundRobinFlowQueue q(2, 4, /*deadline=*/1);
    EXPECT_TRUE(q.push(0, 1));
    EXPECT_TRUE(q.push(1, 1));
    EXPECT_FALSE(q.pop(100).has_value());  // everything stale, nothing served
    EXPECT_EQ(q.totals().dropped_expired, 2u);
    EXPECT_EQ(q.backlog(), 0u);
    // The queue keeps working after a total flush.
    EXPECT_TRUE(q.push(1, 101));
    EXPECT_EQ(q.pop(101)->flow, 1u);
}

TEST(RoundRobinFlowQueueTest, TotalsAggregateAcrossFlows) {
    RoundRobinFlowQueue q(3, 1);
    EXPECT_TRUE(q.push(0, 1));
    EXPECT_TRUE(q.push(1, 1));
    EXPECT_FALSE(q.push(1, 1));
    (void)q.pop(2);
    const FlowCounters t = q.totals();
    EXPECT_EQ(t.enqueued, 2u);
    EXPECT_EQ(t.served, 1u);
    EXPECT_EQ(t.dropped_overflow, 1u);
    EXPECT_EQ(t.dropped_expired, 0u);
}

// Reference model of the queue: one std::deque per flow and a std::deque
// rotation of backlogged flows, with no ring arithmetic at all.
struct DequeFlowQueue {
    DequeFlowQueue(std::size_t flows, std::size_t cap, SimTime deadline)
        : cap(cap), deadline(deadline), rings(flows), active(flows, false), counters(flows) {}

    bool push(std::size_t f, SimTime now) {
        if (rings[f].size() == cap) {
            ++counters[f].dropped_overflow;
            return false;
        }
        rings[f].push_back(now);
        ++counters[f].enqueued;
        if (!active[f]) {
            active[f] = true;
            rotation.push_back(f);
        }
        return true;
    }

    std::optional<RoundRobinFlowQueue::Served> pop(SimTime now) {
        while (!rotation.empty()) {
            const std::size_t f = rotation.front();
            rotation.pop_front();
            active[f] = false;
            std::deque<SimTime>& r = rings[f];
            while (!r.empty() && deadline != 0 && now - r.front() > deadline) {
                r.pop_front();
                ++counters[f].dropped_expired;
            }
            if (r.empty()) continue;
            const RoundRobinFlowQueue::Served out{f, r.front()};
            r.pop_front();
            ++counters[f].served;
            if (!r.empty()) {
                active[f] = true;
                rotation.push_back(f);
            }
            return out;
        }
        return std::nullopt;
    }

    std::size_t backlog() const {
        std::size_t b = 0;
        for (const auto& r : rings) b += r.size();
        return b;
    }

    std::size_t cap;
    SimTime deadline;
    std::vector<std::deque<SimTime>> rings;
    std::vector<bool> active;
    std::deque<std::size_t> rotation;
    std::vector<FlowCounters> counters;
};

TEST(RoundRobinFlowQueueTest, RingWrapAroundMatchesDequeReference) {
    constexpr std::size_t kFlows = 5;
    constexpr SimTime kSteps = 6000;
    for (const std::size_t cap : {std::size_t{1}, std::size_t{3}, std::size_t{16}}) {
        for (const SimTime deadline : {SimTime{0}, SimTime{6}}) {
            SCOPED_TRACE("cap " + std::to_string(cap) + " deadline " +
                         std::to_string(deadline));
            RoundRobinFlowQueue q(kFlows, cap, deadline);
            DequeFlowQueue ref(kFlows, cap, deadline);
            ccap::util::Rng rng(cap * 31 + deadline);
            std::uint64_t served = 0;
            for (SimTime t = 1; t <= kSteps; ++t) {
                // Alternate 250-tick fill and drain phases so rings run both
                // full (overflow drops) and empty, wrapping at every depth.
                const bool filling = (t / 250) % 2 == 0;
                const std::uint64_t pushes = rng.uniform_below(filling ? 5 : 2);
                const std::uint64_t pops = rng.uniform_below(filling ? 2 : 5);
                for (std::uint64_t i = 0; i < pushes; ++i) {
                    const std::size_t f = rng.uniform_below(kFlows);
                    ASSERT_EQ(q.push(f, t), ref.push(f, t)) << "t=" << t;
                }
                for (std::uint64_t i = 0; i < pops; ++i) {
                    const auto got = q.pop(t);
                    const auto want = ref.pop(t);
                    ASSERT_EQ(got.has_value(), want.has_value()) << "t=" << t;
                    if (!want) continue;
                    ASSERT_EQ(got->flow, want->flow) << "t=" << t;
                    // Arrival ticks are kept only where expiry reads them.
                    if (deadline != 0) {
                        ASSERT_EQ(got->enqueued_at, want->enqueued_at) << "t=" << t;
                    }
                    ++served;
                }
                ASSERT_EQ(q.backlog(), ref.backlog()) << "t=" << t;
            }
            for (std::size_t f = 0; f < kFlows; ++f) {
                EXPECT_EQ(q.flow(f).enqueued, ref.counters[f].enqueued);
                EXPECT_EQ(q.flow(f).served, ref.counters[f].served);
                EXPECT_EQ(q.flow(f).dropped_overflow, ref.counters[f].dropped_overflow);
                EXPECT_EQ(q.flow(f).dropped_expired, ref.counters[f].dropped_expired);
                // Every ring wrapped many times over.
                EXPECT_GT(q.flow(f).enqueued, 20 * cap);
            }
            EXPECT_GT(q.totals().dropped_overflow, 0u);
            if (deadline != 0) {
                EXPECT_GT(q.totals().dropped_expired, 0u);
            }
            EXPECT_GT(served, 0u);
        }
    }
}

TEST(RoundRobinFlowQueueTest, PacerAndQueueComposeIntoAServeLoop) {
    // The intended composition: one tick's budget drains round-robin.
    RoundRobinFlowQueue q(4, 4);
    PacingController pacer({2.0, 0.0});
    for (std::size_t f = 0; f < 4; ++f) EXPECT_TRUE(q.push(f, 1));
    std::vector<std::size_t> served;
    for (ccap::sched::SimTime t = 2; t <= 3; ++t) {
        pacer.on_tick();
        while (q.backlog() > 0 && pacer.try_consume()) served.push_back(q.pop(t)->flow);
    }
    EXPECT_EQ(served, (std::vector<std::size_t>{0, 1, 2, 3}));
}

}  // namespace
