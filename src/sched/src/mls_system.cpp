#include "ccap/sched/mls_system.hpp"

#include <algorithm>
#include <deque>
#include <stdexcept>

namespace ccap::sched {

double MlsResult::goodput() const noexcept {
    if (total_quanta == 0) return 0.0;
    std::size_t correct = 0;
    const std::size_t n = std::min(secret.size(), exfiltrated.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (secret[i] != exfiltrated[i]) break;
        ++correct;
    }
    return static_cast<double>(correct) / static_cast<double>(total_quanta);
}

namespace {

/// The legal Low->High object, optionally routed through a Pump: writes
/// become visible to the (High) reader only after a per-write random delay.
class PumpedUpwardChannel {
public:
    void configure(SimTime min_delay, SimTime max_delay, std::uint64_t seed) {
        min_delay_ = min_delay;
        max_delay_ = max_delay;
        rng_.reseed(seed);
    }

    void write(std::uint64_t value, SimTime now) {
        SimTime delay = 0;
        if (max_delay_ > 0)
            delay = min_delay_ + static_cast<SimTime>(rng_.uniform_below(
                                     max_delay_ - min_delay_ + 1));
        pending_.emplace_back(now + delay, value);
    }

    [[nodiscard]] std::uint64_t read(SimTime now) {
        while (!pending_.empty() && pending_.front().first <= now) {
            visible_ = pending_.front().second;
            pending_.pop_front();
        }
        return visible_;
    }

private:
    SimTime min_delay_ = 0;
    SimTime max_delay_ = 0;
    util::Rng rng_{0xB00C};
    std::deque<std::pair<SimTime, std::uint64_t>> pending_;
    std::uint64_t visible_ = 0;
};

struct MlsState {
    // High-level object: the covert medium (High writes, Low "observes" —
    // that observation is the illegal flow being studied). The data value
    // carries symbol | parity-bit when feedback mode is on.
    SharedResource covert{0};
    // Low-level object: legal flow. Low writes its received count; High
    // reads down. (Bell-LaPadula: write-up and read-down are both allowed.)
    // Optionally pumped (see MlsConfig).
    PumpedUpwardChannel legal_up;

    MlsConfig config;
    std::vector<std::uint32_t> secret;
    std::vector<std::uint32_t> exfiltrated;
};

class HighSender final : public Process {
public:
    HighSender(ProcessId id, MlsState& st) : Process(id), st_(st) {}

    void on_quantum(SimTime now) override {
        if (done_) {
            finish();
            return;
        }
        const unsigned shift = st_.config.bits_per_symbol;
        if (!st_.config.use_legal_feedback) {
            // Naive: overwrite the covert cell each quantum.
            st_.covert.write(st_.secret[next_]);
            if (++next_ >= st_.secret.size()) done_ = true;
            return;
        }
        // Alternating-bit stop-and-wait using the legal Low->High object as
        // a perfect feedback path (Theorem 3's protocol).
        const std::uint64_t acked = st_.legal_up.read(now);
        if (acked == sent_count_ && sent_count_ > 0 && next_ >= st_.secret.size()) {
            done_ = true;
            finish();
            return;
        }
        if (acked == sent_count_) {
            // Last symbol acknowledged: send the next one.
            parity_ ^= 1U;
            st_.covert.write((static_cast<std::uint64_t>(parity_) << shift) |
                             st_.secret[next_]);
            ++next_;
            ++sent_count_;
        }
        // else: not yet acknowledged -> resend is implicit (storage channel
        // keeps the value); the quantum is simply wasted waiting.
    }

private:
    MlsState& st_;
    std::size_t next_ = 0;
    std::uint64_t sent_count_ = 0;
    std::uint32_t parity_ = 0;
    bool done_ = false;
};

class LowReceiver final : public Process {
public:
    LowReceiver(ProcessId id, MlsState& st) : Process(id), st_(st) {}

    void on_quantum(SimTime now) override {
        const unsigned shift = st_.config.bits_per_symbol;
        const std::uint64_t raw = st_.covert.read();
        if (!st_.config.use_legal_feedback) {
            st_.exfiltrated.push_back(static_cast<std::uint32_t>(raw));
            return;
        }
        // The covert cell starts at parity 0 and the sender's first write
        // toggles to parity 1, so the initial value is never misread.
        const auto parity = static_cast<std::uint32_t>(raw >> shift);
        if (parity == last_parity_) return;  // no news
        last_parity_ = parity;
        st_.exfiltrated.push_back(
            static_cast<std::uint32_t>(raw & ((1ULL << shift) - 1U)));
        st_.legal_up.write(st_.exfiltrated.size(), now);
    }

private:
    MlsState& st_;
    std::uint32_t last_parity_ = 0;
};

}  // namespace

MlsResult run_mls_exfiltration(std::unique_ptr<Scheduler> scheduler, const MlsConfig& config,
                               std::uint64_t sim_seed) {
    if (config.bits_per_symbol == 0 || config.bits_per_symbol > 16)
        throw std::invalid_argument("run_mls_exfiltration: bits_per_symbol in [1,16]");

    if (config.pump_min_delay > config.pump_max_delay)
        throw std::invalid_argument("run_mls_exfiltration: pump_min_delay > pump_max_delay");
    MlsState st;
    st.config = config;
    st.legal_up.configure(config.pump_min_delay, config.pump_max_delay, sim_seed ^ 0xB00C);
    util::Rng msg_rng(config.message_seed);
    st.secret.resize(config.message_len);
    for (auto& s : st.secret)
        s = static_cast<std::uint32_t>(msg_rng.uniform_below(1ULL << config.bits_per_symbol));

    MultiprocessorSim sim(std::move(scheduler), 1, sim_seed);
    sim.add_process(std::make_unique<HighSender>(0, st));
    sim.add_process(std::make_unique<LowReceiver>(1, st));

    const std::uint64_t cap = (config.message_len + 16) * (64 + config.pump_max_delay);
    std::uint64_t executed = 0;
    while (sim.process(0).state() != ProcessState::finished && executed < cap) {
        sim.run(256);
        executed += 256;
    }
    sim.run(8);  // let Low observe the final symbol

    MlsResult res;
    res.secret = std::move(st.secret);
    res.exfiltrated = std::move(st.exfiltrated);
    res.total_quanta = sim.total_quanta();
    res.exact = res.exfiltrated == res.secret;
    return res;
}

}  // namespace ccap::sched
