#include "ccap/sched/timing_channel.hpp"

#include <cmath>
#include <stdexcept>

#include "ccap/sched/shared_resource.hpp"
#include "ccap/util/solvers.hpp"

namespace ccap::sched {

void TimingChannelConfig::validate() const {
    if (short_gap == 0 || long_gap <= short_gap)
        throw std::invalid_argument("TimingChannelConfig: need 0 < short_gap < long_gap");
    if (clock_granularity == 0)
        throw std::invalid_argument("TimingChannelConfig: clock_granularity must be >= 1");
    if (message_len == 0) throw std::invalid_argument("TimingChannelConfig: empty message");
}

double TimingChannelResult::info_rate_per_quantum() const {
    if (total_quanta == 0 || decoded.empty()) return 0.0;
    const double p = std::min(std::max(bit_error_rate, 0.0), 0.5);
    const double h = p <= 0.0 || p >= 1.0
                         ? 0.0
                         : -p * std::log2(p) - (1.0 - p) * std::log2(1.0 - p);
    const double per_bit = std::max(0.0, 1.0 - h);
    return per_bit * static_cast<double>(decoded.size()) / static_cast<double>(total_quanta);
}

namespace {

struct TimingState {
    SharedResource beacon{0};
    TimingChannelConfig config;
    std::vector<std::uint8_t> message;
    std::vector<SimTime> readings;  // receiver's clocked gap measurements
    util::Rng clock_rng{0};
};

class TimingSender final : public Process {
public:
    TimingSender(ProcessId id, TimingState& st) : Process(id), st_(st) {}

    void on_quantum(SimTime) override {
        if (next_ >= st_.message.size()) {
            // One final beacon so the receiver can close the last gap.
            if (!final_beacon_sent_) {
                st_.beacon.write(++seq_);
                final_beacon_sent_ = true;
                return;
            }
            finish();
            return;
        }
        st_.beacon.write(++seq_);
        const std::uint8_t bit = st_.message[next_++];
        block_for(bit ? st_.config.long_gap : st_.config.short_gap);
    }

private:
    TimingState& st_;
    std::size_t next_ = 0;
    std::uint64_t seq_ = 0;
    bool final_beacon_sent_ = false;
};

class TimingReceiver final : public Process {
public:
    TimingReceiver(ProcessId id, TimingState& st) : Process(id), st_(st) {}

    void on_quantum(SimTime) override {
        ++gap_;  // my own quantum counter is my only clock
        const std::uint64_t seq = st_.beacon.read();
        if (seq == last_seq_) return;
        if (last_seq_ != 0) {
            // Close the gap through the (possibly degraded) local clock.
            SimTime reading = gap_;
            if (st_.config.clock_jitter > 0)
                reading += st_.clock_rng.uniform_below(st_.config.clock_jitter + 1);
            const SimTime g = st_.config.clock_granularity;
            reading = (reading / g) * g;
            st_.readings.push_back(reading);
        }
        last_seq_ = seq;
        gap_ = 0;
    }

private:
    TimingState& st_;
    std::uint64_t last_seq_ = 0;
    SimTime gap_ = 0;
};

}  // namespace

TimingChannelResult run_timing_channel(std::unique_ptr<Scheduler> scheduler,
                                       const TimingChannelConfig& config,
                                       std::uint64_t sim_seed) {
    config.validate();
    TimingState st;
    st.config = config;
    st.clock_rng.reseed(sim_seed ^ 0x71C7);
    util::Rng msg_rng(config.message_seed);
    st.message.resize(config.message_len);
    for (auto& b : st.message) b = static_cast<std::uint8_t>(msg_rng.next() & 1U);

    MultiprocessorSim sim(std::move(scheduler), 1, sim_seed);
    sim.add_process(std::make_unique<TimingSender>(0, st));
    sim.add_process(std::make_unique<TimingReceiver>(1, st));

    const std::uint64_t cap = (config.message_len + 8) * (config.long_gap + 8) * 4;
    std::uint64_t executed = 0;
    while (sim.process(0).state() != ProcessState::finished && executed < cap) {
        sim.run(256);
        executed += 256;
    }
    sim.run(8);

    TimingChannelResult res;
    res.sent = std::move(st.message);
    // Decode by calibrating two gap clusters (1-D two-means) and splitting
    // at the midpoint — the receiver knows the alphabet has two durations
    // but not what its noisy local clock maps them to.
    if (!st.readings.empty()) {
        double lo = static_cast<double>(st.readings.front());
        double hi = lo;
        for (SimTime r : st.readings) {
            lo = std::min(lo, static_cast<double>(r));
            hi = std::max(hi, static_cast<double>(r));
        }
        for (int iter = 0; iter < 25; ++iter) {
            double sum_lo = 0.0, sum_hi = 0.0;
            std::size_t n_lo = 0, n_hi = 0;
            const double mid = 0.5 * (lo + hi);
            for (SimTime r : st.readings) {
                const auto v = static_cast<double>(r);
                if (v <= mid) {
                    sum_lo += v;
                    ++n_lo;
                } else {
                    sum_hi += v;
                    ++n_hi;
                }
            }
            if (n_lo) lo = sum_lo / static_cast<double>(n_lo);
            if (n_hi) hi = sum_hi / static_cast<double>(n_hi);
        }
        const double threshold = 0.5 * (lo + hi);
        res.decoded.reserve(st.readings.size());
        for (SimTime r : st.readings)
            res.decoded.push_back(
                static_cast<std::uint8_t>(static_cast<double>(r) > threshold ? 1 : 0));
    }
    res.total_quanta = sim.total_quanta();
    const std::size_t n = std::min(res.sent.size(), res.decoded.size());
    std::size_t errors = res.sent.size() - n;  // missing bits count as errors
    for (std::size_t i = 0; i < n; ++i) errors += res.sent[i] != res.decoded[i];
    res.bit_error_rate =
        res.sent.empty() ? 0.0
                         : static_cast<double>(errors) / static_cast<double>(res.sent.size());
    return res;
}

double ideal_timing_capacity(const TimingChannelConfig& config) {
    config.validate();
    // The beacon quantum overlaps the wake quantum of the previous symbol,
    // so one symbol occupies exactly `gap` scheduling quanta end to end.
    const double t0 = static_cast<double>(config.short_gap);
    const double t1 = static_cast<double>(config.long_gap);
    const auto g = [&](double x) { return std::pow(x, -t0) + std::pow(x, -t1) - 1.0; };
    const double x0 = ccap::util::bisect(g, 1.0, 3.0, 1e-13).x;
    return std::log2(x0);
}

}  // namespace ccap::sched
