// Scheduling policies and the scheduler simulator.
//
// The paper's central observation (Section 3.1): on a uniprocessor, the
// *scheduler* decides the interleaving of the covert sender and receiver,
// and that interleaving is what creates symbol deletions (sender runs twice
// in a row) and insertions (receiver runs twice in a row). Each policy here
// induces different (P_d, P_i) statistics, which bench E6 measures and
// converts to capacity — "evaluating the effectiveness of candidate system
// implementations, e.g. the scheduler, in reducing covert channel
// capacities" (Section 3.2).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ccap/sched/process.hpp"
#include "ccap/util/rng.hpp"

namespace ccap::sched {

/// Pure policy: pick the next process among the runnable ones.
class Scheduler {
public:
    virtual ~Scheduler() = default;
    [[nodiscard]] virtual std::string name() const = 0;
    /// `runnable` holds indices into the process table, in ascending order;
    /// returns one of them.
    [[nodiscard]] virtual std::size_t pick(std::span<const std::size_t> runnable,
                                           std::span<const std::unique_ptr<Process>> processes,
                                           util::Rng& rng) = 0;
};

/// Cycles through processes in id order (fair, deterministic).
[[nodiscard]] std::unique_ptr<Scheduler> make_round_robin();
/// Uniformly random among runnable processes.
[[nodiscard]] std::unique_ptr<Scheduler> make_random();
/// Highest priority wins; ties broken round-robin.
[[nodiscard]] std::unique_ptr<Scheduler> make_priority();
/// Lottery scheduling: probability proportional to tickets.
[[nodiscard]] std::unique_ptr<Scheduler> make_lottery();
/// Round-robin, but with probability epsilon the quantum goes to a random
/// runnable process instead (models scheduler jitter / fuzzy time).
[[nodiscard]] std::unique_ptr<Scheduler> make_fuzzy_round_robin(double epsilon);
/// Multi-level feedback queue: `levels` priority levels, round-robin within
/// a level; a process that burns its whole quantum is demoted, one that
/// blocks (yields) is promoted; every `boost_period` quanta everyone is
/// boosted back to the top level (starvation guard). The classic Unix-style
/// interactive scheduler, for realistic rows in the E6 policy sweep.
[[nodiscard]] std::unique_ptr<Scheduler> make_mlfq(unsigned levels = 3,
                                                   std::uint64_t boost_period = 64);

/// K-core simulator: each quantum, the policy picks up to `cores` distinct
/// runnable processes; they execute in a uniformly random order within the
/// quantum (the memory race between same-quantum peers). With one core it
/// is the paper's uniprocessor: one process per quantum, and the shuffle of
/// a single pick draws nothing. Blocked processes are woken by the event
/// queue.
class MultiprocessorSim {
public:
    MultiprocessorSim(std::unique_ptr<Scheduler> scheduler, unsigned cores,
                      std::uint64_t seed);

    /// Add a process; returns its id. Must be called before run().
    ProcessId add_process(std::unique_ptr<Process> process);
    [[nodiscard]] Process& process(ProcessId id);
    [[nodiscard]] std::uint64_t total_quanta() const noexcept { return total_quanta_; }

    /// Run `quanta` scheduling quanta (or until every process finished).
    void run(std::uint64_t quanta);

private:
    std::unique_ptr<Scheduler> scheduler_;
    unsigned cores_;
    util::Rng rng_;
    EventQueue queue_;
    std::vector<std::unique_ptr<Process>> processes_;
    std::uint64_t total_quanta_ = 0;
    // Per-quantum scratch, kept across run() calls.
    std::vector<std::size_t> runnable_, chosen_;
};

}  // namespace ccap::sched
