#include "ccap/sched/scheduler.hpp"

#include <algorithm>
#include <stdexcept>

namespace ccap::sched {
namespace {

class RoundRobin final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "round_robin"; }
    std::size_t pick(std::span<const std::size_t> runnable,
                     std::span<const std::unique_ptr<Process>>, util::Rng&) override {
        // First runnable index strictly greater than the last pick, cycling.
        for (std::size_t idx : runnable)
            if (idx > last_) return last_ = idx;
        return last_ = runnable.front();
    }

private:
    std::size_t last_ = static_cast<std::size_t>(-1);
};

class RandomPick final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "random"; }
    std::size_t pick(std::span<const std::size_t> runnable,
                     std::span<const std::unique_ptr<Process>>, util::Rng& rng) override {
        return runnable[rng.uniform_below(runnable.size())];
    }
};

class Priority final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "priority"; }
    std::size_t pick(std::span<const std::size_t> runnable,
                     std::span<const std::unique_ptr<Process>> processes,
                     util::Rng&) override {
        int best = processes[runnable.front()]->priority();
        for (std::size_t idx : runnable) best = std::max(best, processes[idx]->priority());
        // Ties: round-robin among the best-priority processes.
        std::size_t chosen = static_cast<std::size_t>(-1);
        for (std::size_t idx : runnable)
            if (processes[idx]->priority() == best && idx > last_) {
                chosen = idx;
                break;
            }
        if (chosen == static_cast<std::size_t>(-1))
            for (std::size_t idx : runnable)
                if (processes[idx]->priority() == best) {
                    chosen = idx;
                    break;
                }
        return last_ = chosen;
    }

private:
    std::size_t last_ = static_cast<std::size_t>(-1);
};

class Lottery final : public Scheduler {
public:
    [[nodiscard]] std::string name() const override { return "lottery"; }
    std::size_t pick(std::span<const std::size_t> runnable,
                     std::span<const std::unique_ptr<Process>> processes,
                     util::Rng& rng) override {
        weights_.clear();
        for (std::size_t idx : runnable)
            weights_.push_back(static_cast<double>(processes[idx]->tickets()));
        return runnable[rng.categorical(weights_)];  // in-range even for zero tickets
    }

private:
    std::vector<double> weights_;
};

class FuzzyRoundRobin final : public Scheduler {
public:
    explicit FuzzyRoundRobin(double epsilon) : epsilon_(epsilon) {
        if (epsilon < 0.0 || epsilon > 1.0)
            throw std::domain_error("fuzzy_round_robin: epsilon outside [0,1]");
    }
    [[nodiscard]] std::string name() const override { return "fuzzy_round_robin"; }
    std::size_t pick(std::span<const std::size_t> runnable,
                     std::span<const std::unique_ptr<Process>> processes,
                     util::Rng& rng) override {
        if (rng.bernoulli(epsilon_)) return runnable[rng.uniform_below(runnable.size())];
        return rr_.pick(runnable, processes, rng);
    }

private:
    double epsilon_;
    RoundRobin rr_;
};

class Mlfq final : public Scheduler {
public:
    Mlfq(unsigned levels, std::uint64_t boost_period)
        : levels_(levels), boost_period_(boost_period) {
        if (levels == 0) throw std::invalid_argument("mlfq: need at least one level");
        if (boost_period == 0) throw std::invalid_argument("mlfq: boost_period must be >= 1");
    }

    [[nodiscard]] std::string name() const override { return "mlfq"; }

    std::size_t pick(std::span<const std::size_t> runnable,
                     std::span<const std::unique_ptr<Process>> processes,
                     util::Rng&) override {
        if (level_.size() < processes.size()) level_.resize(processes.size(), 0);
        // Feedback on the previous pick: still runnable means it used its
        // whole quantum (demote); anything else means it yielded (promote).
        if (last_ != kNone) {
            if (processes[last_]->state() == ProcessState::runnable)
                level_[last_] = std::min(level_[last_] + 1, levels_ - 1);
            else
                level_[last_] = 0;
        }
        if (++ticks_ % boost_period_ == 0)
            std::fill(level_.begin(), level_.end(), 0U);

        unsigned best = levels_;
        for (std::size_t idx : runnable) best = std::min(best, level_[idx]);
        // Round-robin within the best level.
        std::size_t chosen = kNone;
        for (std::size_t idx : runnable)
            if (level_[idx] == best && idx > last_rr_) {
                chosen = idx;
                break;
            }
        if (chosen == kNone)
            for (std::size_t idx : runnable)
                if (level_[idx] == best) {
                    chosen = idx;
                    break;
                }
        last_rr_ = chosen;
        last_ = chosen;
        return chosen;
    }

private:
    static constexpr std::size_t kNone = static_cast<std::size_t>(-1);
    unsigned levels_;
    std::uint64_t boost_period_;
    std::uint64_t ticks_ = 0;
    std::vector<unsigned> level_;
    std::size_t last_ = kNone;
    std::size_t last_rr_ = kNone;
};

}  // namespace

std::unique_ptr<Scheduler> make_round_robin() { return std::make_unique<RoundRobin>(); }
std::unique_ptr<Scheduler> make_random() { return std::make_unique<RandomPick>(); }
std::unique_ptr<Scheduler> make_priority() { return std::make_unique<Priority>(); }
std::unique_ptr<Scheduler> make_lottery() { return std::make_unique<Lottery>(); }
std::unique_ptr<Scheduler> make_fuzzy_round_robin(double epsilon) {
    return std::make_unique<FuzzyRoundRobin>(epsilon);
}
std::unique_ptr<Scheduler> make_mlfq(unsigned levels, std::uint64_t boost_period) {
    return std::make_unique<Mlfq>(levels, boost_period);
}

MultiprocessorSim::MultiprocessorSim(std::unique_ptr<Scheduler> scheduler, unsigned cores,
                                     std::uint64_t seed)
    : scheduler_(std::move(scheduler)), cores_(cores), rng_(seed) {
    if (!scheduler_) throw std::invalid_argument("MultiprocessorSim: null scheduler");
    if (cores == 0) throw std::invalid_argument("MultiprocessorSim: zero cores");
}

ProcessId MultiprocessorSim::add_process(std::unique_ptr<Process> process) {
    if (!process) throw std::invalid_argument("MultiprocessorSim: null process");
    const auto expected = static_cast<ProcessId>(processes_.size());
    if (process->id() != expected)
        throw std::invalid_argument("MultiprocessorSim: process id must equal its index");
    processes_.push_back(std::move(process));
    return expected;
}

Process& MultiprocessorSim::process(ProcessId id) { return *processes_.at(id); }

void MultiprocessorSim::run(std::uint64_t quanta) {
    if (processes_.empty()) throw std::logic_error("MultiprocessorSim: no processes");
    for (std::uint64_t q = 0; q < quanta; ++q) {
        // Advance simulated time by one quantum; fire due wakeups.
        queue_.run_until(queue_.now() + 1);
        runnable_.clear();
        bool all_finished = true;
        for (std::size_t i = 0; i < processes_.size(); ++i) {
            const ProcessState st = processes_[i]->state();
            if (st != ProcessState::finished) all_finished = false;
            if (st == ProcessState::runnable) runnable_.push_back(i);
        }
        if (all_finished) break;
        ++total_quanta_;
        if (runnable_.empty()) continue;

        // The policy fills the cores one pick at a time, each pick excluding
        // the processes already placed this quantum.
        chosen_.clear();
        for (unsigned c = 0; c < cores_ && !runnable_.empty(); ++c) {
            const std::size_t idx = scheduler_->pick(runnable_, processes_, rng_);
            chosen_.push_back(idx);
            runnable_.erase(std::find(runnable_.begin(), runnable_.end(), idx));
        }
        // Same-quantum peers race: execute in uniformly random order.
        rng_.shuffle(chosen_);
        for (std::size_t idx : chosen_) {
            Process& proc = *processes_[idx];
            proc.grant_quantum(queue_.now());
            if (proc.state() == ProcessState::blocked) {
                Process* raw = &proc;
                queue_.schedule_in(raw->block_ticks_, [raw](SimTime) { raw->wake(); });
            }
        }
    }
}

}  // namespace ccap::sched
