#include "ccap/info/fsm_capacity.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace {

using ccap::info::FsmChannel;

/// Distinct operation sequences of exactly `steps` unit-duration edges
/// starting from `start`: the growth-rate oracle for capacity().
double count_sequences(const FsmChannel& fsm, std::size_t start, std::size_t steps) {
    std::vector<double> counts(fsm.num_states(), 0.0);
    counts[start] = 1.0;
    for (std::size_t i = 0; i < steps; ++i) {
        std::vector<double> next(counts.size(), 0.0);
        for (const auto& e : fsm.edges()) next[e.to] += counts[e.from];
        counts = std::move(next);
    }
    double total = 0.0;
    for (double c : counts) total += c;
    return total;
}

TEST(FsmChannel, ConstructionValidation) {
    EXPECT_THROW(FsmChannel(0), std::invalid_argument);
    FsmChannel fsm(2);
    EXPECT_THROW(fsm.add_edge(2, 0), std::out_of_range);
    EXPECT_THROW(fsm.add_edge(0, 2), std::out_of_range);
    EXPECT_THROW(fsm.add_edge(0, 0, 0.0), std::domain_error);
}

TEST(FsmChannel, NoEdgesZeroCapacity) {
    FsmChannel fsm(3);
    EXPECT_DOUBLE_EQ(fsm.capacity(), 0.0);
}

TEST(FsmChannel, NoCycleZeroCapacity) {
    // A single one-way edge cannot sustain transmission.
    FsmChannel fsm(2);
    fsm.add_edge(0, 1);
    EXPECT_DOUBLE_EQ(fsm.capacity(), 0.0);
}

TEST(FsmChannel, BinaryFreeChannelIsOneBit) {
    // One state, two unit-time operations: 1 bit per tick.
    FsmChannel fsm(1);
    fsm.add_edge(0, 0);
    fsm.add_edge(0, 0);
    EXPECT_NEAR(fsm.capacity(), 1.0, 1e-9);
}

TEST(FsmChannel, KarySelfLoops) {
    FsmChannel fsm(1);
    for (int i = 0; i < 8; ++i) fsm.add_edge(0, 0);
    EXPECT_NEAR(fsm.capacity(), 3.0, 1e-9);
}

TEST(FsmChannel, GoldenRatioMachine) {
    // Millen's classic example shape: state 0 can emit a short op (stay) or
    // start a long op via state 1 — counts follow Fibonacci, capacity
    // log2(phi).
    FsmChannel fsm(2);
    fsm.add_edge(0, 0);  // "0"
    fsm.add_edge(0, 1);  // "1" part 1
    fsm.add_edge(1, 0);  // "1" part 2 (forced)
    const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
    EXPECT_NEAR(fsm.capacity(), std::log2(phi), 1e-9);
}

TEST(FsmChannel, GoldenRatioViaDurations) {
    // Same machine expressed as one state with durations {1, 2}.
    FsmChannel fsm(1);
    fsm.add_edge(0, 0, 1.0);
    fsm.add_edge(0, 0, 2.0);
    const double phi = (1.0 + std::sqrt(5.0)) / 2.0;
    EXPECT_NEAR(fsm.capacity(), std::log2(phi), 1e-9);
}

TEST(FsmChannel, CapacityMatchesSequenceGrowth) {
    // capacity (unit durations) == lim log2(#sequences of length n)/n.
    FsmChannel fsm(2);
    fsm.add_edge(0, 0);
    fsm.add_edge(0, 1);
    fsm.add_edge(1, 0);
    const double c = fsm.capacity();
    const double n40 = count_sequences(fsm, 0, 40);
    const double n41 = count_sequences(fsm, 0, 41);
    EXPECT_NEAR(std::log2(n41 / n40), c, 1e-3);
}

TEST(FsmChannel, CountSequencesSmall) {
    FsmChannel fsm(2);
    fsm.add_edge(0, 0);
    fsm.add_edge(0, 1);
    fsm.add_edge(1, 0);
    EXPECT_DOUBLE_EQ(count_sequences(fsm, 0, 0), 1.0);
    EXPECT_DOUBLE_EQ(count_sequences(fsm, 0, 1), 2.0);   // {0, 1-start}
    EXPECT_DOUBLE_EQ(count_sequences(fsm, 0, 2), 3.0);   // 00, 01s, 1s0
    EXPECT_DOUBLE_EQ(count_sequences(fsm, 0, 3), 5.0);   // Fibonacci growth
}

TEST(FsmChannel, SlowerEdgesLowerCapacity) {
    FsmChannel fast(1), slow(1);
    for (int i = 0; i < 2; ++i) {
        fast.add_edge(0, 0, 1.0);
        slow.add_edge(0, 0, 2.0);
    }
    EXPECT_NEAR(slow.capacity(), fast.capacity() / 2.0, 1e-9);
}

TEST(FsmChannel, DisconnectedComponentTakesBest) {
    // Component A: 2 self-loops at state 0 (1 bit). Component B: 1 self-loop
    // at state 1 (0 bits). Spectral radius picks the best component.
    FsmChannel fsm(2);
    fsm.add_edge(0, 0);
    fsm.add_edge(0, 0);
    fsm.add_edge(1, 1);
    EXPECT_NEAR(fsm.capacity(), 1.0, 1e-9);
}

}  // namespace
