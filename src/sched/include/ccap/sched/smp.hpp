// Multiprocessor extension of the Section-3.1 example.
//
// The paper's non-synchronous behaviour is a *uniprocessor* consequence:
// "As there is only one CPU in the system, at any time only one of the two
// processes can be active." This module removes that assumption: the
// K-core MultiprocessorSim (scheduler.hpp) grants up to K distinct runnable
// processes each quantum. A co-scheduled covert pair then acts nearly
// synchronously — the sender and receiver alternate within every quantum
// (with an ordering race) — and deletions/insertions reappear only when
// background load contends for the cores. Bench X9 sweeps cores x load
// and shows the covert capacity snapping back to the synchronous ceiling
// on an idle SMP: multicore hardware makes covert channels *faster*, which
// is why the paper's correction matters most on saturated systems.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "ccap/sched/scheduler.hpp"

namespace ccap::sched {

struct SmpCovertConfig {
    unsigned cores = 2;
    unsigned bits_per_symbol = 1;
    std::size_t message_len = 4000;
    std::uint64_t message_seed = 11;
    std::size_t background_processes = 0;  ///< CPU hogs contending for cores
};

struct SmpCovertResult {
    std::vector<std::uint32_t> sent;
    std::vector<std::uint32_t> received;
    std::uint64_t total_quanta = 0;
    /// Ground-truth Definition-1 event counts (same semantics as
    /// CovertPairResult).
    std::uint64_t deletions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t transmissions = 0;

    [[nodiscard]] double deletion_rate() const noexcept;
    [[nodiscard]] double insertion_rate() const noexcept;
};

/// Naive covert pair (sender writes every quantum it gets, receiver samples
/// every quantum it gets) on the K-core simulator.
[[nodiscard]] SmpCovertResult run_smp_covert_pair(std::unique_ptr<Scheduler> scheduler,
                                                  const SmpCovertConfig& config,
                                                  std::uint64_t sim_seed);

}  // namespace ccap::sched
