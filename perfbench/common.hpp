// Shared pieces of the benchmark harness: clocks, digests, percentiles, the
// span log of the traced run, and the metric sink that becomes the final
// JSON line.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Set-up repetitions per run; setup_s reports their median.
inline constexpr int kSetupReps = 15;

inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CPU time of the whole process (user + system, every thread), in seconds.
/// The end-to-end figures are measured in CPU time: on a shared host the
/// wall clock also counts the time the scheduler or the hypervisor gives
/// the cores to someone else, and the kernel leaves that time (steal
/// included) out of a task's CPU clock.
inline double process_cpu_seconds() {
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// A wall-clock and a process-CPU reading taken together.
struct Stamp {
    Clock::time_point wall = Clock::now();
    double cpu = process_cpu_seconds();

    [[nodiscard]] double wall_s() const { return seconds_since(wall); }
    [[nodiscard]] double cpu_s() const { return process_cpu_seconds() - cpu; }
};

/// Wall-clock and CPU stopwatch that can be paused, so a timed loop can
/// leave its checks out and the traced run can exclude the time it spends
/// replaying a layer from the workload's own wall time.
class Stopwatch {
public:
    void start() { t0_ = Stamp{}; }
    void stop() {
        total_ += t0_.wall_s();
        cpu_total_ += t0_.cpu_s();
    }
    [[nodiscard]] double seconds() const { return total_; }
    [[nodiscard]] double cpu_seconds() const { return cpu_total_; }

private:
    Stamp t0_{};
    double total_ = 0.0;
    double cpu_total_ = 0.0;
};

/// FNV-1a over the exact bit patterns of the values fed in: two outputs
/// digest equal only if they are bit-identical.
class Digest {
public:
    void add_u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffU;
            h_ *= 0x100000001b3ULL;
        }
    }
    void add(double v) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof bits);
        add_u64(bits);
    }
    [[nodiscard]] std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Linear-interpolated quantile (q in [0, 1]) of a sample; NaN when empty.
inline double quantile(std::vector<double> v, double q) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// Lattice cells of one batched tile through both passes (likelihood and
/// marginal): each of the rows + 1 rows' union drift window, as the batched
/// engine bounds it, times the lanes. `m_max` is the longest received block.
inline double lattice_cells(std::size_t rows, int max_drift, std::size_t m_max,
                            std::size_t lanes) {
    const long long d = max_drift;
    double cells = 0.0;
    for (long long j = 0; j <= static_cast<long long>(rows); ++j) {
        const long long lo = std::max(-d, -j);
        const long long hi = std::min(d, static_cast<long long>(m_max) - j);
        if (lo <= hi) cells += 2.0 * static_cast<double>(hi - lo + 1) * static_cast<double>(lanes);
    }
    return cells;
}

/// One span of the traced run. `seconds` is its duration; `parent` indexes
/// the span it belongs to (-1 for a top-level call). A replayed child
/// (a layer reachable only inside another public call, re-run on the same
/// inputs) is recorded with the duration of its replay.
struct Span {
    std::string name;
    int parent = -1;
    double seconds = 0.0;
};

class SpanLog {
public:
    int add(std::string name, double seconds, int parent = -1) {
        spans_.push_back({std::move(name), parent, seconds});
        return static_cast<int>(spans_.size()) - 1;
    }

    /// Sum of self times (duration minus children) of spans named `name`.
    [[nodiscard]] double self_seconds(const std::string& name) const {
        std::vector<double> self(spans_.size());
        for (std::size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].seconds;
        for (const Span& s : spans_)
            if (s.parent >= 0) self[static_cast<std::size_t>(s.parent)] -= s.seconds;
        double total = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].name == name) total += self[i];
        return total;
    }

    /// Sum of durations of spans named `name`.
    [[nodiscard]] double total_seconds(const std::string& name) const {
        double total = 0.0;
        for (const Span& s : spans_)
            if (s.name == name) total += s.seconds;
        return total;
    }

    /// Durations of each span named `name`, in record order.
    [[nodiscard]] std::vector<double> durations(const std::string& name) const {
        std::vector<double> out;
        for (const Span& s : spans_)
            if (s.name == name) out.push_back(s.seconds);
        return out;
    }

private:
    std::vector<Span> spans_;
};

/// Named metrics in insertion order, each with its unit.
class Metrics {
public:
    void set(const std::string& name, double value, const std::string& unit) {
        if (!index_.count(name)) {
            index_[name] = order_.size();
            order_.push_back({name, {value, unit}});
        } else {
            order_[index_[name]].second = {value, unit};
        }
    }
    [[nodiscard]] const std::vector<std::pair<std::string, std::pair<double, std::string>>>&
    items() const {
        return order_;
    }

private:
    std::map<std::string, std::size_t> index_;
    std::vector<std::pair<std::string, std::pair<double, std::string>>> order_;
};

/// Outcome of one workload run: the operation counts that feed
/// `attempted`/`failed`, the correctness verdict, and the metrics.
struct RunResult {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    bool correct = true;
    std::vector<std::string> failures;  ///< one line per failed check
    Metrics metrics;

    void fail(const std::string& why) {
        correct = false;
        if (failures.size() < 32) failures.push_back(why);
    }
};

/// Command-line settings shared by every workload.
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".bench_build/run";
    unsigned nproc = 1;
};

}  // namespace perfbench
