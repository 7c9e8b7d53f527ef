#include "ccap/sched/scheduler.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

namespace {

using namespace ccap::sched;

/// Counts its own quanta and records when each ran; optionally blocks
/// periodically.
class CountingProcess final : public Process {
public:
    CountingProcess(ProcessId id, int priority = 0, std::uint64_t tickets = 1,
                    SimTime block_every = 0, SimTime block_len = 0)
        : Process(id, priority, tickets),
          block_every_(block_every),
          block_len_(block_len) {}

    void on_quantum(SimTime now) override {
        ++count;
        ran_at.push_back(now);
        if (block_every_ != 0 && count % block_every_ == 0) block_for(block_len_);
    }

    std::uint64_t count = 0;
    std::vector<SimTime> ran_at;

private:
    SimTime block_every_;
    SimTime block_len_;
};

// The simulator on one core: the paper's uniprocessor, where every policy
// test below runs.
TEST(UniprocessorSim, RequiresProcesses) {
    MultiprocessorSim sim(make_round_robin(), 1, 1);
    EXPECT_THROW(sim.run(10), std::logic_error);
}

TEST(UniprocessorSim, ProcessIdsMustMatchIndices) {
    MultiprocessorSim sim(make_round_robin(), 1, 1);
    EXPECT_THROW(sim.add_process(std::make_unique<CountingProcess>(5)), std::invalid_argument);
}

TEST(UniprocessorSim, NullArgumentsThrow) {
    EXPECT_THROW(MultiprocessorSim(nullptr, 1, 1), std::invalid_argument);
    MultiprocessorSim sim(make_round_robin(), 1, 1);
    EXPECT_THROW(sim.add_process(nullptr), std::invalid_argument);
}

TEST(RoundRobin, PerfectAlternation) {
    MultiprocessorSim sim(make_round_robin(), 1, 1);
    auto* a = new CountingProcess(0);
    auto* b = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(100);
    EXPECT_EQ(a->count, 50U);
    EXPECT_EQ(b->count, 50U);
    // Each runs every other quantum: the two strictly alternate.
    for (const CountingProcess* p : {a, b})
        for (std::size_t i = 1; i < p->ran_at.size(); ++i)
            EXPECT_EQ(p->ran_at[i] - p->ran_at[i - 1], 2U);
}

TEST(RoundRobin, ConservesQuanta) {
    MultiprocessorSim sim(make_round_robin(), 1, 2);
    auto* a = new CountingProcess(0);
    auto* b = new CountingProcess(1);
    auto* c = new CountingProcess(2);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.add_process(std::unique_ptr<Process>(c));
    sim.run(99);
    EXPECT_EQ(a->count + b->count + c->count, 99U);
    EXPECT_EQ(sim.total_quanta(), 99U);
}

TEST(RandomScheduler, RoughlyFair) {
    MultiprocessorSim sim(make_random(), 1, 3);
    auto* a = new CountingProcess(0);
    auto* b = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(20000);
    EXPECT_NEAR(static_cast<double>(a->count) / 20000.0, 0.5, 0.02);
}

TEST(PriorityScheduler, HighPriorityMonopolizes) {
    MultiprocessorSim sim(make_priority(), 1, 4);
    auto* lo = new CountingProcess(0, /*priority=*/1);
    auto* hi = new CountingProcess(1, /*priority=*/5);
    sim.add_process(std::unique_ptr<Process>(lo));
    sim.add_process(std::unique_ptr<Process>(hi));
    sim.run(50);
    EXPECT_EQ(hi->count, 50U);
    EXPECT_EQ(lo->count, 0U);
}

TEST(PriorityScheduler, TiesRoundRobin) {
    MultiprocessorSim sim(make_priority(), 1, 5);
    auto* a = new CountingProcess(0, 3);
    auto* b = new CountingProcess(1, 3);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(60);
    EXPECT_EQ(a->count, 30U);
    EXPECT_EQ(b->count, 30U);
}

TEST(LotteryScheduler, ProportionalToTickets) {
    MultiprocessorSim sim(make_lottery(), 1, 6);
    auto* a = new CountingProcess(0, 0, /*tickets=*/1);
    auto* b = new CountingProcess(1, 0, /*tickets=*/3);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(40000);
    EXPECT_NEAR(static_cast<double>(b->count) / 40000.0, 0.75, 0.02);
}

TEST(FuzzyRoundRobin, EpsilonZeroIsRoundRobin) {
    MultiprocessorSim sim(make_fuzzy_round_robin(0.0), 1, 7);
    auto* a = new CountingProcess(0);
    auto* b = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(100);
    EXPECT_EQ(a->count, 50U);
}

TEST(FuzzyRoundRobin, EpsilonValidation) {
    EXPECT_THROW((void)make_fuzzy_round_robin(-0.1), std::domain_error);
    EXPECT_THROW((void)make_fuzzy_round_robin(1.1), std::domain_error);
}

TEST(Mlfq, ConstructionValidation) {
    EXPECT_THROW((void)make_mlfq(0, 10), std::invalid_argument);
    EXPECT_THROW((void)make_mlfq(3, 0), std::invalid_argument);
}

TEST(Mlfq, CpuHogsShareFairlyViaBoost) {
    MultiprocessorSim sim(make_mlfq(3, 32), 1, 20);
    auto* a = new CountingProcess(0);
    auto* b = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(1000);
    // Two identical CPU hogs end up sharing roughly evenly.
    EXPECT_NEAR(static_cast<double>(a->count) / 1000.0, 0.5, 0.1);
}

TEST(Mlfq, InteractiveProcessGetsPriority) {
    MultiprocessorSim sim(make_mlfq(3, 256), 1, 21);
    // a blocks after every quantum (interactive); b hogs the CPU.
    auto* interactive = new CountingProcess(0, 0, 1, /*block_every=*/1, /*block_len=*/2);
    auto* hog = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(interactive));
    sim.add_process(std::unique_ptr<Process>(hog));
    sim.run(600);
    // The interactive process gets a quantum nearly every time it wakes
    // (about once per 3 quanta given its 2-tick sleep).
    EXPECT_GT(interactive->count, 150U);
}

TEST(Blocking, BlockedProcessSkipsQuantaThenWakes) {
    MultiprocessorSim sim(make_round_robin(), 1, 8);
    // a blocks for 5 ticks after every quantum; b never blocks.
    auto* a = new CountingProcess(0, 0, 1, /*block_every=*/1, /*block_len=*/5);
    auto* b = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(a));
    sim.add_process(std::unique_ptr<Process>(b));
    sim.run(120);
    EXPECT_GT(b->count, a->count * 3);
    EXPECT_GT(a->count, 10U);  // still woken regularly
}

TEST(Blocking, FinishedProcessNeverRunsAgain) {
    class OneShot final : public Process {
    public:
        explicit OneShot(ProcessId id) : Process(id) {}
        void on_quantum(SimTime) override {
            ++runs;
            finish();
        }
        int runs = 0;
    };
    MultiprocessorSim sim(make_round_robin(), 1, 9);
    auto* p = new OneShot(0);
    auto* q = new CountingProcess(1);
    sim.add_process(std::unique_ptr<Process>(p));
    sim.add_process(std::unique_ptr<Process>(q));
    sim.run(50);
    EXPECT_EQ(p->runs, 1);
    EXPECT_EQ(q->count, 49U);
}

TEST(Sim, AllFinishedStopsEarly) {
    class OneShot final : public Process {
    public:
        explicit OneShot(ProcessId id) : Process(id) {}
        void on_quantum(SimTime) override { finish(); }
    };
    MultiprocessorSim sim(make_round_robin(), 1, 10);
    sim.add_process(std::make_unique<OneShot>(0));
    sim.run(1000);
    EXPECT_LE(sim.total_quanta(), 2U);
}

}  // namespace
