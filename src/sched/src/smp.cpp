#include "ccap/sched/smp.hpp"

#include <stdexcept>

#include "ccap/sched/shared_resource.hpp"

namespace ccap::sched {

double SmpCovertResult::deletion_rate() const noexcept {
    const double uses = static_cast<double>(deletions + insertions + transmissions);
    return uses > 0.0 ? static_cast<double>(deletions) / uses : 0.0;
}

double SmpCovertResult::insertion_rate() const noexcept {
    const double uses = static_cast<double>(deletions + insertions + transmissions);
    return uses > 0.0 ? static_cast<double>(insertions) / uses : 0.0;
}

namespace {

struct SmpState {
    SharedResource data{0};
    std::vector<std::uint32_t> message;
    std::vector<std::uint32_t> sent;
    std::vector<std::uint32_t> received;
    std::uint64_t deletions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t transmissions = 0;
    bool unread_write = false;
    bool sender_done = false;
};

class SmpSender final : public Process {
public:
    SmpSender(ProcessId id, SmpState& st) : Process(id), st_(st) {}
    void on_quantum(SimTime) override {
        if (next_ >= st_.message.size()) {
            st_.sender_done = true;
            finish();
            return;
        }
        if (st_.unread_write) ++st_.deletions;
        st_.unread_write = true;
        st_.data.write(st_.message[next_]);
        st_.sent.push_back(st_.message[next_]);
        ++next_;
        if (next_ >= st_.message.size()) st_.sender_done = true;
    }

private:
    SmpState& st_;
    std::size_t next_ = 0;
};

class SmpReceiver final : public Process {
public:
    SmpReceiver(ProcessId id, SmpState& st) : Process(id), st_(st) {}
    void on_quantum(SimTime) override {
        if (st_.unread_write)
            ++st_.transmissions;
        else
            ++st_.insertions;
        st_.unread_write = false;
        st_.received.push_back(static_cast<std::uint32_t>(st_.data.read()));
        if (st_.sender_done) finish();
    }

private:
    SmpState& st_;
};

class SmpHog final : public Process {
public:
    explicit SmpHog(ProcessId id) : Process(id) {}
    void on_quantum(SimTime) override {}
};

}  // namespace

SmpCovertResult run_smp_covert_pair(std::unique_ptr<Scheduler> scheduler,
                                    const SmpCovertConfig& config, std::uint64_t sim_seed) {
    if (config.bits_per_symbol == 0 || config.bits_per_symbol > 16)
        throw std::invalid_argument("run_smp_covert_pair: bits_per_symbol in [1,16]");
    if (config.cores == 0) throw std::invalid_argument("run_smp_covert_pair: zero cores");

    SmpState st;
    util::Rng msg_rng(config.message_seed);
    st.message.resize(config.message_len);
    for (auto& s : st.message)
        s = static_cast<std::uint32_t>(msg_rng.uniform_below(1ULL << config.bits_per_symbol));

    MultiprocessorSim sim(std::move(scheduler), config.cores, sim_seed);
    sim.add_process(std::make_unique<SmpSender>(0, st));
    sim.add_process(std::make_unique<SmpReceiver>(1, st));
    for (std::size_t i = 0; i < config.background_processes; ++i)
        sim.add_process(std::make_unique<SmpHog>(static_cast<ProcessId>(2 + i)));

    const std::uint64_t cap =
        (config.message_len + 16) * 32 * (2 + config.background_processes);
    std::uint64_t executed = 0;
    while (!st.sender_done && executed < cap) {
        sim.run(256);
        executed += 256;
        if (sim.process(0).state() == ProcessState::finished) break;
    }
    sim.run(4);  // let the receiver close out

    SmpCovertResult res;
    res.sent = std::move(st.sent);
    res.received = std::move(st.received);
    res.total_quanta = sim.total_quanta();
    res.deletions = st.deletions;
    res.insertions = st.insertions;
    res.transmissions = st.transmissions;
    return res;
}

}  // namespace ccap::sched
