#include "ccap/sched/event_queue.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <utility>
#include <vector>

namespace {

using ccap::sched::EventQueue;
using ccap::sched::SimTime;

TEST(EventQueue, StartsEmptyAtTimeZero) {
    EventQueue q;
    EXPECT_EQ(q.now(), 0U);
    EXPECT_FALSE(q.step());  // nothing scheduled
}

TEST(EventQueue, RunsInTimeOrder) {
    EventQueue q;
    std::vector<int> order;
    q.schedule_at(30, [&](SimTime) { order.push_back(3); });
    q.schedule_at(10, [&](SimTime) { order.push_back(1); });
    q.schedule_at(20, [&](SimTime) { order.push_back(2); });
    while (q.step()) {}
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30U);
}

TEST(EventQueue, TiesAreFifo) {
    EventQueue q;
    std::vector<int> order;
    for (int i = 0; i < 5; ++i)
        q.schedule_at(7, [&order, i](SimTime) { order.push_back(i); });
    while (q.step()) {}
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

// Regression for heap-implementation-dependent tie order: interleave pops
// with pushes at the same timestamp so the heap is repeatedly restructured
// mid-tie-group, and mix tie groups at several timestamps scheduled out of
// order. With a (when, seq) total order the dequeue sequence is forced to be
// FIFO within every timestamp regardless of how the heap rebalances.
TEST(EventQueue, TiesAreFifoUnderInterleavedScheduling) {
    EventQueue q;
    std::vector<std::pair<SimTime, int>> order;
    int next_id = 0;
    auto record = [&order](SimTime t, int id) { order.emplace_back(t, id); };
    // Scrambled schedule order across three tie groups.
    const SimTime times[] = {20, 10, 30, 10, 20, 30, 10, 20, 30, 10};
    std::vector<std::vector<int>> expect_by_time(4);
    for (SimTime t : times) {
        const int id = next_id++;
        expect_by_time[t / 10].push_back(id);
        q.schedule_at(t, [&record, id](SimTime at) { record(at, id); });
    }
    // First event of the t=10 group appends more t=10 events from inside its
    // callback; they must still fire after every already-queued t=10 event.
    const int late_a = next_id++;
    const int late_b = next_id++;
    q.schedule_at(10, [&](SimTime) {
        q.schedule_at(10, [&record, late_a](SimTime at) { record(at, late_a); });
        q.schedule_at(10, [&record, late_b](SimTime at) { record(at, late_b); });
    });
    while (q.step()) {}
    std::vector<std::pair<SimTime, int>> expect;
    for (int id : expect_by_time[1]) expect.emplace_back(10, id);
    expect.emplace_back(10, late_a);
    expect.emplace_back(10, late_b);
    for (int id : expect_by_time[2]) expect.emplace_back(20, id);
    for (int id : expect_by_time[3]) expect.emplace_back(30, id);
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, LargeTieGroupStaysFifo) {
    EventQueue q;
    std::vector<int> order;
    // Two waves into the same timestamp with pops in between, large enough
    // to force many sift-up/sift-down rounds in any binary-heap layout.
    for (int i = 0; i < 64; ++i)
        q.schedule_at(5, [&order, i](SimTime) { order.push_back(i); });
    q.schedule_at(1, [&](SimTime) {
        for (int i = 64; i < 128; ++i)
            q.schedule_at(5, [&order, i](SimTime) { order.push_back(i); });
    });
    while (q.step()) {}
    std::vector<int> expect(128);
    for (int i = 0; i < 128; ++i) expect[static_cast<std::size_t>(i)] = i;
    EXPECT_EQ(order, expect);
}

TEST(EventQueue, ScheduleInIsRelative) {
    EventQueue q;
    SimTime fired_at = 0;
    q.schedule_at(5, [&](SimTime) {});
    q.step();
    q.schedule_in(10, [&](SimTime t) { fired_at = t; });
    q.step();
    EXPECT_EQ(fired_at, 15U);
}

TEST(EventQueue, PastSchedulingThrows) {
    EventQueue q;
    q.schedule_at(10, [](SimTime) {});
    q.step();
    EXPECT_THROW(q.schedule_at(5, [](SimTime) {}), std::invalid_argument);
}

TEST(EventQueue, EmptyCallbackThrows) {
    EventQueue q;
    EXPECT_THROW(q.schedule_at(1, {}), std::invalid_argument);
}

TEST(EventQueue, RunUntilStopsAtDeadline) {
    EventQueue q;
    int fired = 0;
    q.schedule_at(5, [&](SimTime) { ++fired; });
    q.schedule_at(15, [&](SimTime) { ++fired; });
    q.run_until(10);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(q.now(), 10U);
    EXPECT_TRUE(q.step());  // the event past the deadline is still queued
    EXPECT_EQ(fired, 2);
    EXPECT_FALSE(q.step());
}

TEST(EventQueue, RunUntilAdvancesClockWithoutEvents) {
    EventQueue q;
    q.run_until(42);
    EXPECT_EQ(q.now(), 42U);
}

TEST(EventQueue, EventsCanScheduleEvents) {
    EventQueue q;
    std::vector<SimTime> fire_times;
    q.schedule_at(1, [&](SimTime t) {
        fire_times.push_back(t);
        q.schedule_in(2, [&](SimTime t2) { fire_times.push_back(t2); });
    });
    q.run_until(10);
    EXPECT_EQ(fire_times, (std::vector<SimTime>{1, 3}));
}

}  // namespace
