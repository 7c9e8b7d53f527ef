#include "ccap/sched/covert_pair.hpp"

#include <stdexcept>

namespace ccap::sched {
namespace {

struct PairState {
    SharedResource data{0};
    SharedResource data_seq{0};  // handshake: sender's sequence flag
    SharedResource ack_seq{0};   // handshake: receiver's ack flag
    std::vector<std::uint32_t> message;
    CovertPairConfig config;
    util::Rng op_rng{0};

    std::vector<std::uint32_t> sent;
    std::vector<std::uint32_t> received;
    std::uint64_t sender_waits = 0;
    std::uint64_t receiver_waits = 0;
    std::uint64_t deletions = 0;
    std::uint64_t insertions = 0;
    std::uint64_t transmissions = 0;
    bool unread_write = false;
    bool sender_done = false;
};

class SenderProcess final : public Process {
public:
    SenderProcess(ProcessId id, PairState& st) : Process(id), st_(st) {}

    void on_quantum(SimTime) override {
        if (next_ >= st_.message.size()) {
            st_.sender_done = true;
            finish();
            return;
        }
        if (!st_.op_rng.bernoulli(st_.config.op_success_prob)) return;  // op failed
        if (st_.config.mode == PairMode::naive) {
            if (st_.unread_write) ++st_.deletions;  // overwrote an unread symbol
            st_.unread_write = true;
            st_.data.write(st_.message[next_]);
            st_.sent.push_back(st_.message[next_]);
            ++next_;
        } else {
            // Fig. 1: only send when the last symbol has been acknowledged.
            if (st_.ack_seq.read() != seq_) {
                ++st_.sender_waits;
                return;
            }
            st_.data.write(st_.message[next_]);
            st_.sent.push_back(st_.message[next_]);
            ++next_;
            ++seq_;
            st_.data_seq.write(seq_);
        }
        if (next_ >= st_.message.size()) {
            st_.sender_done = true;
            if (st_.config.mode == PairMode::naive) finish();
            // handshake: keep running until the last symbol is acked.
        }
        if (st_.config.mode == PairMode::handshake && st_.sender_done &&
            st_.ack_seq.read() == seq_)
            finish();
    }

private:
    PairState& st_;
    std::size_t next_ = 0;
    std::uint64_t seq_ = 0;
};

class ReceiverProcess final : public Process {
public:
    ReceiverProcess(ProcessId id, PairState& st) : Process(id), st_(st) {}

    void on_quantum(SimTime) override {
        if (!st_.op_rng.bernoulli(st_.config.op_success_prob)) return;
        if (st_.config.mode == PairMode::naive) {
            // "believes that a symbol is received" on every opportunity.
            if (st_.unread_write)
                ++st_.transmissions;
            else
                ++st_.insertions;
            st_.unread_write = false;
            st_.received.push_back(static_cast<std::uint32_t>(st_.data.read()));
            // The experiment ends with the message; one final read (above)
            // captures the last symbol, then the receiver leaves so the
            // traces are not padded with end-of-run duplicates.
            if (st_.sender_done) finish();
        } else {
            const std::uint64_t seq = st_.data_seq.read();
            if (seq == last_seq_) {
                ++st_.receiver_waits;
                return;
            }
            st_.received.push_back(static_cast<std::uint32_t>(st_.data.read()));
            last_seq_ = seq;
            st_.ack_seq.write(seq);
        }
    }

private:
    PairState& st_;
    std::uint64_t last_seq_ = 0;
};

class BackgroundProcess final : public Process {
public:
    explicit BackgroundProcess(ProcessId id) : Process(id) {}
    void on_quantum(SimTime) override {}  // burns CPU, touches nothing
};

}  // namespace

CovertPairResult run_covert_pair(std::unique_ptr<Scheduler> scheduler,
                                 const CovertPairConfig& config, std::uint64_t sim_seed) {
    if (config.bits_per_symbol == 0 || config.bits_per_symbol > 16)
        throw std::invalid_argument("run_covert_pair: bits_per_symbol must be in [1,16]");
    if (config.op_success_prob <= 0.0 || config.op_success_prob > 1.0)
        throw std::invalid_argument("run_covert_pair: op_success_prob must be in (0,1]");

    PairState st;
    st.config = config;
    st.op_rng.reseed(sim_seed ^ 0xC0FFEE);
    util::Rng msg_rng(config.message_seed);
    st.message.resize(config.message_len);
    for (auto& s : st.message)
        s = static_cast<std::uint32_t>(msg_rng.uniform_below(1ULL << config.bits_per_symbol));

    MultiprocessorSim sim(std::move(scheduler), 1, sim_seed);
    auto* sender = new SenderProcess(0, st);
    auto* receiver = new ReceiverProcess(1, st);
    sim.add_process(std::unique_ptr<Process>(sender));
    sim.add_process(std::unique_ptr<Process>(receiver));
    for (std::size_t i = 0; i < config.background_processes; ++i)
        sim.add_process(std::make_unique<BackgroundProcess>(static_cast<ProcessId>(2 + i)));

    // Safety cap: generous multiple of the message length so a starved
    // handshake still terminates.
    const std::uint64_t cap =
        (config.message_len + 16) * 64 * (2 + config.background_processes);
    std::uint64_t executed = 0;
    while (!st.sender_done && executed < cap) {
        sim.run(256);
        executed += 256;
        if (sim.process(0).state() == ProcessState::finished) break;
    }
    // Give the receiver a few more chances to drain in handshake mode.
    if (config.mode == PairMode::handshake) sim.run(64);

    CovertPairResult res;
    res.sent = std::move(st.sent);
    res.received = std::move(st.received);
    res.total_quanta = sim.total_quanta();
    res.sender_quanta = sim.process(0).quanta_used();
    res.receiver_quanta = sim.process(1).quanta_used();
    res.sender_waits = st.sender_waits;
    res.receiver_waits = st.receiver_waits;
    res.deletions = st.deletions;
    res.insertions = st.insertions;
    res.transmissions = st.transmissions;
    if (config.mode == PairMode::handshake)
        res.reliable = res.received == st.message;
    return res;
}

}  // namespace ccap::sched
