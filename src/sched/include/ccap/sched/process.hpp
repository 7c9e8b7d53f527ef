// Simulated processes on the uniprocessor model of the paper's Section 3.1.
//
// Time advances in scheduler quanta. Exactly one runnable process receives
// each quantum; its on_quantum() hook runs (this is where covert senders
// write and receivers sample the shared resource). A process may block
// itself for a number of ticks (modeling I/O or voluntary yield-and-sleep);
// the simulation's event queue wakes it.
#pragma once

#include <cstdint>
#include <memory>

#include "ccap/sched/event_queue.hpp"

namespace ccap::sched {

using ProcessId = std::uint32_t;

enum class ProcessState : std::uint8_t { runnable, blocked, finished };

class Process {
public:
    explicit Process(ProcessId id, int priority = 0, std::uint64_t tickets = 1)
        : id_(id), priority_(priority), tickets_(tickets) {}
    virtual ~Process() = default;

    Process(const Process&) = delete;
    Process& operator=(const Process&) = delete;

    [[nodiscard]] ProcessId id() const noexcept { return id_; }
    [[nodiscard]] int priority() const noexcept { return priority_; }
    [[nodiscard]] std::uint64_t tickets() const noexcept { return tickets_; }
    [[nodiscard]] ProcessState state() const noexcept { return state_; }
    [[nodiscard]] std::uint64_t quanta_used() const noexcept { return quanta_used_; }

    /// One scheduler quantum granted at time `now`. Implementations do their
    /// work and may call block_for()/finish().
    virtual void on_quantum(SimTime now) = 0;

    /// Request to sleep for `ticks` quanta (>=1); the simulator re-wakes it.
    void block_for(SimTime ticks) noexcept {
        state_ = ProcessState::blocked;
        block_ticks_ = ticks == 0 ? 1 : ticks;
    }
    /// Mark the process as done; it is never scheduled again.
    void finish() noexcept { state_ = ProcessState::finished; }

private:
    friend class MultiprocessorSim;
    void grant_quantum(SimTime now) {
        ++quanta_used_;
        on_quantum(now);
    }
    void wake() noexcept {
        if (state_ == ProcessState::blocked) state_ = ProcessState::runnable;
    }

    ProcessId id_;
    int priority_;
    std::uint64_t tickets_;
    ProcessState state_ = ProcessState::runnable;
    SimTime block_ticks_ = 0;
    std::uint64_t quanta_used_ = 0;
};

}  // namespace ccap::sched
