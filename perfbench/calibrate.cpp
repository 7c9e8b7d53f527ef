#include "calibrate.hpp"

#include <algorithm>
#include <thread>

#include "common.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kSmall = 2048;      // two L1/L2-resident rows of doubles
constexpr std::size_t kLarge = 1U << 19;  // 4 MiB of doubles: past L2
constexpr std::size_t kTable = 1024;
constexpr int kRounds = 24;

/// The reference computation: a fixed mix of what the workloads spend their
/// time on — a vectorizable multiply-add sweep over short rows (the batched
/// lattice passes), a strided read-modify-write walk over a large array
/// (the alignment DP), a serial three-point recurrence (the scalar lattice)
/// and data-dependent branches on integer state (the event simulation).
/// Returns a value that depends on all of it, so none of it is optimized
/// away.
double reference_work(std::vector<double>& w) {
    double* a = w.data();
    double* b = a + kSmall;
    double* big = b + kSmall;
    double acc = 0.0;
    std::uint64_t x = 0x9E3779B97F4A7C15ULL;
    std::uint32_t table[kTable] = {};
    for (int round = 0; round < kRounds; ++round) {
        for (int pass = 0; pass < 24; ++pass)
            for (std::size_t i = 0; i < kSmall; ++i)
                a[i] = a[i] * 0.9990234375 + b[i] * 0.0009765625;
        for (std::size_t i = static_cast<std::size_t>(round) % 8; i < kLarge; i += 8)
            big[i] = big[i] * 0.5 + a[i % kSmall];
        for (int pass = 0; pass < 8; ++pass)
            for (std::size_t i = 1; i < kSmall; ++i)
                b[i] = b[i] * 0.25 + b[i - 1] * 0.5 + a[i] * 0.25;
        acc += b[kSmall - 1];
        for (int i = 0; i < 40000; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            std::uint32_t& slot = table[x % kTable];
            if ((x >> 40) & 1U)
                slot += static_cast<std::uint32_t>(x >> 52);
            else
                slot ^= static_cast<std::uint32_t>(x >> 20);
        }
    }
    acc += big[kLarge / 3] + a[kSmall / 2];
    for (std::uint32_t t : table) acc += static_cast<double>(t & 7U);
    return acc;
}

}  // namespace

Calibrator::Calibrator(unsigned threads) : threads_(std::max(1U, threads)) {
    state_.resize(threads_);
    for (auto& w : state_) {
        w.assign(2 * kSmall + kLarge, 1.0);
        for (std::size_t i = 0; i < kSmall; ++i) w[kSmall + i] = static_cast<double>(i % 17);
    }
}

void Calibrator::sample() {
    std::vector<double> out(threads_, 0.0);
    const Stamp t0;
    if (threads_ == 1) {
        out[0] = reference_work(state_[0]);
    } else {
        std::vector<std::thread> pool;
        pool.reserve(threads_);
        for (unsigned t = 0; t < threads_; ++t)
            pool.emplace_back([&, t] { out[t] = reference_work(state_[t]); });
        for (std::thread& th : pool) th.join();
    }
    per_thread_s_.push_back(t0.cpu_s() / static_cast<double>(threads_));
    for (double v : out) sink_ += v;
}

double Calibrator::factor() const { return kNominalSampleS / median(per_thread_s_); }

}  // namespace perfbench
